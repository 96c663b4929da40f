"""The billing engine's quantity stage, and the analytics built on it.

``inflation_analysis`` must report exactly what the engine's
``billable_quantities`` yields: each billable total is the float of the
exact decimal sum over the same records, on every bundled platform that
documents a time granularity.
"""

import dataclasses
import random
from decimal import Decimal

import pytest

from faascost.billing.engine import (
    allocation_quantities,
    billable_quantities,
    compute_cost,
    normalize_allocation,
)
from faascost.billing.model import (
    MEMORY_GB,
    VCPU,
    MissingGranularityError,
    MissingPriceError,
    allocation,
)
from faascost.billing.platforms import bundled_platform_names, resolve_platform
from faascost.money import CONTEXT
from faascost.traces import InvocationRecord, inflation_analysis

# GCP's 1st-gen vCPU knob values: all on its 0.01 vCPU grid, and all
# billed one step up by a binary-float ceiling (0.07 / 0.01 > 7).
GRID_VCPUS = (0.07, 0.14, 0.28, 0.56)

GRANULAR = sorted(
    name
    for name in bundled_platform_names()
    if resolve_platform(name).time_granularity_ms is not None
)


def seeded_records(seed, n=400):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        vcpus = rng.choice(GRID_VCPUS + (0.5, 1.0, round(rng.uniform(0.05, 1.0), 6)))
        mem_mb = rng.choice((128.0, 256.0, 512.0, 1024.0, 2048.0, 1769.0))
        # Whole and 100 ms multiples land on granularity boundaries.
        exec_ms = rng.choice(
            (float(rng.randrange(1, 30)) * 100.0, round(rng.uniform(0.05, 3000.0), 6))
        )
        out.append(
            InvocationRecord(
                function_id=f"f{i % 5}",
                instance_id=f"i{i % 40}",
                arrival_ts_ms=float(i),
                exec_duration_ms=exec_ms,
                init_duration_ms=rng.choice((0.0, round(rng.uniform(1.0, 400.0), 3))),
                is_cold_start=False,
                alloc=allocation(vcpus=vcpus, memory_mb=mem_mb),
                cpu_usage_avg_vcpus=round(rng.uniform(0.0, 1.0) * vcpus, 6),
                mem_usage_mb=round(rng.uniform(0.01, 1.0) * mem_mb, 6),
            )
        )
    return out


def exact_totals(records, config):
    """(vCPU-s, GB-s) sums of the engine's quantities, as exact decimals."""
    usage_cpu = config.usage_spec(VCPU)
    usage_mem = config.usage_spec(MEMORY_GB)
    cpu = mem = Decimal(0)
    for record in records:
        granted = normalize_allocation(record.alloc, config)
        q = billable_quantities(record, config, allocation_quantities(granted, config))
        time_s = CONTEXT.divide(q.time_ms, 1000)
        if usage_cpu is None:
            cpu_s = CONTEXT.multiply(q.alloc.get(VCPU, granted.vcpus), time_s)
        elif usage_cpu.billing_basis == "per_billable_second":
            cpu_s = CONTEXT.multiply(q.usage[VCPU], time_s)
        else:
            cpu_s = CONTEXT.divide(q.usage[VCPU], 1000)  # vCPU-ms
        if usage_mem is None:
            mem_s = CONTEXT.multiply(q.alloc.get(MEMORY_GB, 0), time_s)
        elif usage_mem.billing_basis == "per_billable_second":
            mem_s = CONTEXT.multiply(q.usage[MEMORY_GB], time_s)
        else:
            mem_s = q.usage[MEMORY_GB]
        cpu = CONTEXT.add(cpu, cpu_s)
        mem = CONTEXT.add(mem, mem_s)
    return cpu, mem


def test_nine_bundled_platforms_document_a_granularity():
    assert len(GRANULAR) == 9
    assert "oracle_functions" not in GRANULAR
    assert "vercel_functions" not in GRANULAR


@pytest.mark.parametrize("name", GRANULAR)
def test_inflation_totals_are_the_engines_exact_sums(name):
    config = resolve_platform(name)
    records = seeded_records(seed=len(name))
    report = inflation_analysis(records, config)
    cpu, mem = exact_totals(records, config)
    if report.billable_vcpu_s_total is not None:
        assert report.billable_vcpu_s_total == float(cpu)
    if report.billable_gb_s_total is not None:
        assert report.billable_gb_s_total == float(mem)
    assert report.n == len(records)


def test_grid_vcpus_are_billed_on_the_grid():
    config = resolve_platform("gcp_cloudrun_functions")
    for vcpus in GRID_VCPUS:
        record = dataclasses.replace(
            seeded_records(seed=1, n=1)[0], alloc=allocation(vcpus=vcpus, memory_mb=256)
        )
        q = billable_quantities(record, config)
        assert q.alloc[VCPU] == Decimal(repr(vcpus))
        report = inflation_analysis([record], config)
        assert report.billable_vcpu_s_total == float(
            Decimal(repr(vcpus)) * q.time_ms / 1000
        )


@pytest.mark.parametrize("name", sorted(bundled_platform_names()))
def test_quantities_need_no_price(name):
    config = resolve_platform(name)
    record = seeded_records(seed=2, n=1)[0]
    granted = normalize_allocation(record.alloc, config)
    if config.time_granularity_ms is None:
        with pytest.raises(MissingGranularityError):
            billable_quantities(record, config)
        return
    q = billable_quantities(record, config, allocation_quantities(granted, config))
    assert q.time_ms > 0
    assert set(q.alloc) == {s.resource for s in config.alloc_resources}
    assert set(q.usage) == {s.resource for s in config.usage_resources}
    priced = all(
        s.unit_price_usd_per_unit_second is not None for s in config.alloc_resources
    ) and all(s.unit_price_usd_per_unit is not None for s in config.usage_resources)
    if priced and config.invocation_fee_usd is not None:
        assert compute_cost(record, config, granted).billable_time_ms == q.time_ms
    else:
        with pytest.raises(MissingPriceError):
            compute_cost(record, config, granted)
