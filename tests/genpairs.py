"""Seeded random (record, config) pair generator for billing oracle tests.

All numeric literals are short decimal strings so both the decimal engine
and the rational oracle consume them exactly.
"""

from __future__ import annotations

import random
from decimal import Decimal
from types import SimpleNamespace

from faascost.billing.model import (
    AllocResourceSpec,
    IndependentKnobs,
    PlatformBillingConfig,
    ResourceAllocation,
    UsageResourceSpec,
)
from faascost.traces.records import InvocationRecord

_TIME_GRANS = ["0.1", "1", "10", "100", "1000", "0.5"]
_CUTOFFS = ["0", "0", "0", "100", "1000", "250"]
_RES_GRANS = ["0.0009765625", "0.125", "0.01", "0.05", "0.3", "1", "2.5"]
_PRICES = [
    "0",
    "0.0000166667",
    "0.0000133334",
    "0.000024",
    "0.0000025",
    "0.00013",
    "0.0000002",
    "0.0075",
]
_FEES = ["0", "0.0000001", "0.0000002", "0.0000004", "0.000001"]


def _amount(rng: random.Random, hi: int, places: int) -> Decimal:
    # Uniform on a decimal grid, biased to include exact zeros.
    if rng.random() < 0.15:
        return Decimal(0)
    scale = 10**places
    return Decimal(rng.randrange(0, hi * scale + 1)) / scale


def random_pair(rng: random.Random):
    """One random (InvocationRecord, PlatformBillingConfig) pair, and the
    exact allocation to bill, with its custom extras: the record holds only
    its vCPU and memory floats, which read back as the same decimals."""
    kind = rng.choice(["execution", "turnaround", "cpu_time_only"])

    alloc_specs = []
    usage_specs = []
    used = set()
    if rng.random() < 0.8:
        alloc_specs.append(
            AllocResourceSpec("memory_gb", Decimal(rng.choice(_RES_GRANS)), Decimal(rng.choice(_PRICES)))
        )
        used.add("memory_gb")
    if rng.random() < 0.5:
        alloc_specs.append(
            AllocResourceSpec("vcpu", Decimal(rng.choice(_RES_GRANS)), Decimal(rng.choice(_PRICES)))
        )
        used.add("vcpu")
    has_gpu = rng.random() < 0.25
    if has_gpu:
        alloc_specs.append(
            AllocResourceSpec("gpu", Decimal(rng.choice(_RES_GRANS)), Decimal(rng.choice(_PRICES)))
        )
    if "vcpu" not in used and rng.random() < 0.5:
        usage_specs.append(
            UsageResourceSpec(
                "vcpu",
                Decimal(rng.choice(["1", "0.5", "10"])),
                Decimal(rng.choice(_PRICES)),
                billing_basis=rng.choice(["absolute", "per_billable_second"]),
            )
        )
    if "memory_gb" not in used and rng.random() < 0.5:
        usage_specs.append(
            UsageResourceSpec(
                "memory_gb",
                Decimal(rng.choice(["0.125", "0.0009765625", "0.25"])),
                Decimal(rng.choice(_PRICES)),
                billing_basis=rng.choice(["absolute", "per_billable_second"]),
            )
        )

    config = PlatformBillingConfig(
        name=f"random-{rng.randrange(1 << 30)}",
        billable_time_kind=kind,
        time_granularity_ms=Decimal(rng.choice(_TIME_GRANS)),
        time_min_cutoff_ms=Decimal(rng.choice(_CUTOFFS)),
        alloc_resources=tuple(alloc_specs),
        usage_resources=tuple(usage_specs),
        invocation_fee_usd=Decimal(rng.choice(_FEES)),
        knob_coupling=IndependentKnobs(),
    )

    extras = {"gpu": _amount(rng, 4, 2)} if has_gpu else {}
    # Drawn in the record's field order, which fixes what each seed yields.
    head = dict(
        function_id=f"f{rng.randrange(100)}",
        instance_id=f"i{rng.randrange(1000)}",
        arrival_ts_ms=float(rng.randrange(0, 10**9)),
        exec_duration_ms=float(_amount(rng, 5000, 3)),
        init_duration_ms=float(_amount(rng, 2000, 3)),
        is_cold_start=rng.random() < 0.3,
    )
    alloc = ResourceAllocation(
        vcpus=_amount(rng, 4, 2),
        memory_mb=_amount(rng, 10240, 1),
        extras=extras,
    )
    record = InvocationRecord(
        **head,
        alloc_vcpus=float(alloc.vcpus),
        alloc_memory_mb=float(alloc.memory_mb),
        cpu_usage_avg_vcpus=float(_amount(rng, 4, 4)),
        mem_usage_mb=float(_amount(rng, 4096, 2)),
    )
    return record, config, alloc


def invoice_view(record, alloc) -> SimpleNamespace:
    """``record`` as the invoice oracle reads it, with ``alloc`` as ``.alloc``."""
    return SimpleNamespace(
        exec_duration_ms=record.exec_duration_ms,
        init_duration_ms=record.init_duration_ms,
        cpu_usage_avg_vcpus=record.cpu_usage_avg_vcpus,
        mem_usage_mb=record.mem_usage_mb,
        alloc=alloc,
    )
