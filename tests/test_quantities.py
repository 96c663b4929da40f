"""The billing engine's quantity stage, and the analytics built on it.

``inflation_analysis`` must report exactly what the engine's
``billable_quantities`` yields: each billable total is the float of the
exact decimal sum over the same records, on every bundled platform that
documents a time granularity. Its integer form, ``TraceBilling``, must give
the very same quantities for every record it keys, and ``bill --records``,
which prices once per key, the very same rows as pricing each record.
"""

import io
import random
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faascost import cli
from faascost.billing.engine import (
    allocation_quantities,
    billable_quantities,
    compute_cost,
    normalize_allocation,
    price,
)
from faascost.billing.model import (
    MEMORY_GB,
    VCPU,
    AllocResourceSpec,
    MissingGranularityError,
    MissingPriceError,
    UsageResourceSpec,
    allocation,
)
from faascost.billing.platforms import bundled_platform_names, resolve_platform
from faascost.billing.trace_billing import TraceBilling
from faascost.commands import bill
from faascost.money import CONTEXT, micros
from faascost.traces import (
    InvocationRecord,
    SchemaMap,
    default_schema_map,
    inflation_analysis,
    ingest_trace,
)

from oracle_traces import oracle_inflation_values

# GCP's 1st-gen vCPU knob values: all on its 0.01 vCPU grid, and all
# billed one step up by a binary-float ceiling (0.07 / 0.01 > 7).
GRID_VCPUS = (0.07, 0.14, 0.28, 0.56)

GRANULAR = sorted(
    name
    for name in bundled_platform_names()
    if resolve_platform(name).time_granularity_ms is not None
)
# Finer than 10^-6 ms: no record is on TraceBilling's integer grid.
FINE_GRID = resolve_platform("aws_lambda")._replace(time_granularity_ms=Decimal("0.0000001"))
KEY_CONFIGS = {name: resolve_platform(name) for name in GRANULAR}
KEY_CONFIGS["aws_lambda_1e-7ms"] = FINE_GRID


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
                alloc_vcpus=vcpus,
                alloc_memory_mb=mem_mb,
                cpu_usage_avg_vcpus=round(rng.uniform(0.0, 1.0) * vcpus, 6),
                mem_usage_mb=round(rng.uniform(0.01, 1.0) * mem_mb, 6),
            )
        )
    return out


def requested(record):
    """The exact allocation a record's two floats read as."""
    return allocation(record.alloc_vcpus, record.alloc_memory_mb)


def exact_seconds(record, config):
    """(vCPU-s, GB-s) of one record from the engine's quantities, exactly."""
    usage_cpu = config.usage_spec(VCPU)
    usage_mem = config.usage_spec(MEMORY_GB)
    granted = normalize_allocation(requested(record), config)
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
    return cpu_s, mem_s


def exact_totals(records, config):
    """(vCPU-s, GB-s) sums of the engine's quantities, as exact decimals."""
    cpu = mem = Decimal(0)
    for record in records:
        cpu_s, mem_s = exact_seconds(record, config)
        cpu = CONTEXT.add(cpu, cpu_s)
        mem = CONTEXT.add(mem, mem_s)
    return cpu, mem


def assert_key_bills_record(billing, record):
    """``record``'s key gives its exact quantities and billed seconds."""
    config = billing.config
    amounts = allocation_quantities(normalize_allocation(requested(record), config), config)
    key = billing.key(record)
    assert billing.quantities(key) == billable_quantities(record, config, amounts)
    for got, want in zip(billing.seconds(key), exact_seconds(record, config)):
        assert got is None or got == want


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


def test_billed_resources_are_the_oracles():
    # Which resources each platform bills: priced ones, and a vCPU share
    # tied to memory by the knob coupling or metered as CPU time.
    records = seeded_records(seed=4, n=5)
    mapper = lambda r: (r.alloc_vcpus, r.alloc_memory_mb)
    for name in GRANULAR:
        config = resolve_platform(name)
        report = inflation_analysis(records, config, mapping="direct")
        bill_cpu, _, bill_mem, _ = oracle_inflation_values(records, config, mapper)
        assert (report.billable_vcpu_s_total is None) == (bill_cpu is None), name
        assert (report.billable_gb_s_total is None) == (bill_mem is None), name


def test_grid_vcpus_are_billed_on_the_grid():
    config = resolve_platform("gcp_cloudrun_functions")
    for vcpus in GRID_VCPUS:
        record = seeded_records(seed=1, n=1)[0]._replace(alloc_vcpus=vcpus, alloc_memory_mb=256.0)
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
    granted = normalize_allocation(requested(record), config)
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


# The integer stage: TraceBilling against billable_quantities.

SCHEMA_UNITS = {
    "ms": {},
    "s": {"duration_unit": "s"},
    "us": {"duration_unit": "us"},
    "bytes": {"memory_unit": "bytes"},
}
_MB_IN_UNIT = {"bytes": 1024.0 * 1024.0}
_MS_IN_UNIT = {"s": 0.001, "us": 1000.0}

# Six-decimal values, values with more digits, cutoff and granularity
# boundaries (100 ms and 1000 ms), zeros, and values at or past 2**33.
cells = st.one_of(
    st.integers(min_value=0, max_value=5 * 10**9).map(lambda k: k / 10**6),
    st.sampled_from((0.0, 99.999999, 100.0, 100.000001, 999.999999, 1000.0, 1000.1)),
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
    st.floats(min_value=2.0**33, max_value=2.0**40),
)


def key_edge_examples(test):
    """Examples that take each early exit of a key on every platform that
    reads the field: -0.0 cells (which ingest accepts and ``st.floats``
    never draws), and each field at 2**33, just below it and off the 10^-6
    grid, the others on it. An off-grid init is read under turnaround
    billing only, an off-grid CPU under CPU-time and usage billing only.
    Each off-grid value lies 10^-7 past a step boundary (100 ms of
    execution, or of a 10 ms execution and its init; 1 ms of CPU time over
    10 ms; 128 MB), so a key that rounded it onto the grid would bill one
    step less."""
    base = dict(unit="ms", exec_ms=10.0, init_ms=1.0, cpu=0.5, mem_used=64.0,
                vcpus=0.5, mem_mb=128.0)
    rows = [dict(base, exec_ms=-0.0, init_ms=-0.0, cpu=-0.0, mem_used=-0.0)]
    off_grid = {"exec_ms": 100.0000001, "init_ms": 90.0000001, "cpu": 0.10000001,
                "mem_used": 128.0000001}
    for field, off in off_grid.items():
        for value in (2.0**33, 8589934591.999999, off):
            rows.append(dict(base, **{field: value}))
    for row in rows:
        test = example(**row)(test)
    return test


def ingested_record(unit, exec_ms, init_ms, cpu, mem_used, vcpus, mem_mb):
    """One record read back through ingest, the cells written in ``unit``."""
    per_ms = _MS_IN_UNIT.get(unit, 1.0)
    per_mb = _MB_IN_UNIT.get(unit, 1.0)
    row = (
        f"f,i,0,{exec_ms * per_ms!r},{init_ms * per_ms!r},false,{vcpus!r},"
        f"{mem_mb * per_mb!r},{cpu!r},{mem_used * per_mb!r}"
    )
    text = (
        "function_id,instance_id,arrival_ts_ms,exec_duration_ms,init_duration_ms,"
        "is_cold_start,alloc_vcpus,alloc_memory_mb,cpu_usage_avg_vcpus,mem_usage_mb\n"
        + row + "\n"
    )
    schema = SchemaMap(columns=default_schema_map().columns, **SCHEMA_UNITS[unit])
    (record,) = ingest_trace(io.BytesIO(text.encode()), schema)
    return record


@pytest.mark.parametrize("name", sorted(KEY_CONFIGS))
@settings(max_examples=40, deadline=None)
@given(
    unit=st.sampled_from(sorted(SCHEMA_UNITS)),
    exec_ms=cells,
    init_ms=cells,
    cpu=cells,
    mem_used=cells,
    vcpus=st.sampled_from(GRID_VCPUS + (0.5, 1.0, 0.333333)),
    mem_mb=st.sampled_from((128.0, 256.0, 1769.0, 2048.0)),
)
@key_edge_examples
def test_step_keys_reproduce_billable_quantities(
    name, unit, exec_ms, init_ms, cpu, mem_used, vcpus, mem_mb
):
    # Every record is keyed: on the integer grid, and off it (more than six
    # decimals, cells of 2**33 and above, the 1e-7 ms grid) alike.
    record = ingested_record(unit, exec_ms, init_ms, cpu, mem_used, vcpus, mem_mb)
    assert_key_bills_record(TraceBilling(KEY_CONFIGS[name]), record)


def stepped_in_integers(monkeypatch):
    """Fail any key that is not stepped on the integer grid."""

    def off_grid(self, record):
        raise AssertionError(f"keyed off the integer grid: {record}")

    monkeypatch.setattr(TraceBilling, "_exact_key", off_grid)


@pytest.mark.parametrize("name", GRANULAR)
def test_step_keys_cover_six_decimal_records(name, monkeypatch):
    stepped_in_integers(monkeypatch)
    billing = TraceBilling(resolve_platform(name))
    for record in seeded_records(seed=3, n=200):
        assert_key_bills_record(billing, record)


@pytest.mark.parametrize("basis", ["absolute", "per_billable_second"])
def test_step_keys_read_usage_billed_vcpus(basis, monkeypatch):
    # No bundled platform bills vCPU usage on wall-clock time, so the key's
    # read of the CPU field for it is checked on a variant of AWS that does.
    stepped_in_integers(monkeypatch)
    usage = UsageResourceSpec(VCPU, Decimal("0.001"), billing_basis=basis)
    config = resolve_platform("aws_lambda")._replace(usage_resources=(usage,))
    billing = TraceBilling(config)
    for record in seeded_records(seed=4, n=200):
        assert_key_bills_record(billing, record)


def test_step_keys_need_whole_units(monkeypatch):
    # Integer steps need a grid of whole units; off it, a record is keyed by
    # its exact quantities, and to the same key. With no time granularity
    # the first record fails, not the construction.
    config = resolve_platform("aws_lambda")
    record = seeded_records(seed=3, n=1)[0]
    exact = TraceBilling(config)._exact_key(record)
    assert all(type(item) is int for item in exact[2:])
    assert_key_bills_record(TraceBilling(FINE_GRID), record)
    untimed = TraceBilling(config._replace(time_granularity_ms=None))
    with pytest.raises(MissingGranularityError, match="granularity not documented"):
        untimed.key(record)
    stepped_in_integers(monkeypatch)
    assert TraceBilling(config).key(record) == exact


def test_a_priced_extra_is_billed_through_the_granted_allocation():
    # A trace row holds only its vCPU and memory floats, so a custom resource
    # reaches the invoice only in the exact allocation handed to compute_cost:
    # for a keyed duration and for a seven-decimal one alike.
    aws = resolve_platform("aws_lambda")
    gpu = AllocResourceSpec("gpu", Decimal(1), Decimal("0.0001"))
    config = aws._replace(alloc_resources=aws.alloc_resources + (gpu,))
    base = seeded_records(seed=5, n=1)[0]
    finer = base._replace(exec_duration_ms=base.exec_duration_ms + 1.25e-7)
    billing = TraceBilling(config)
    assert micros(finer.exec_duration_ms) is None
    for record in (base, finer):
        assert billing.quantities(billing.key(record)).alloc["gpu"] == 0
    alloc_usd = []
    for gpus in (1, 2):
        asked = allocation(base.alloc_vcpus, base.alloc_memory_mb, gpu=gpus)
        granted = normalize_allocation(asked, config)
        amounts = allocation_quantities(granted, config)
        assert amounts["gpu"] == gpus
        for record in (base, finer):
            breakdown = compute_cost(record, config, granted)
            assert breakdown.alloc_terms["gpu"][0] == gpus
            assert breakdown == price(billable_quantities(record, config, amounts), config)
        alloc_usd.append(bill._bill_row(base, config, granted)[bill._BILL_COLUMNS.index("alloc_usd")])
    assert alloc_usd[0] != alloc_usd[1]
    # The row's own allocation, as granted for a trace, carries no GPU.
    assert billing.grant(base.alloc_vcpus, base.alloc_memory_mb)[1]["gpu"] == 0
    assert compute_cost(base, config).alloc_terms["gpu"] == (0, 0)


# The keyed bill path: `bill --records` prices each distinct billing key
# once, and must give _bill_row's row for every record.

PRICED = ("aws_lambda", "aws_lambda_arm", "gcp_cloudrun_functions")
PLACEHOLDER_PRICE = Decimal("0.0000001")


def with_placeholder_prices(config):
    """``config`` with each undocumented unit price and fee set to a placeholder."""

    def filled(price):
        return PLACEHOLDER_PRICE if price is None else price

    return config._replace(
        alloc_resources=tuple(
            s._replace(unit_price_usd_per_unit_second=filled(s.unit_price_usd_per_unit_second))
            for s in config.alloc_resources
        ),
        usage_resources=tuple(
            s._replace(unit_price_usd_per_unit=filled(s.unit_price_usd_per_unit))
            for s in config.usage_resources
        ),
        invocation_fee_usd=filled(config.invocation_fee_usd),
    )


BILL_CONFIGS = {name: with_placeholder_prices(resolve_platform(name)) for name in GRANULAR}
# Off the integer grid: every record is keyed by its exact quantities.
BILL_CONFIGS["aws_lambda_1e-7ms"] = FINE_GRID


def bill_records(seed):
    """Six-decimal records, zero durations and seven-decimal cells, each
    twice, so that every key recurs."""
    rng = random.Random(seed)
    records = []
    for record in seeded_records(seed, n=240):
        if rng.random() < 0.2:
            record = record._replace(exec_duration_ms=0.0, init_duration_ms=0.0)
        if rng.random() < 0.2:
            field = rng.choice(("exec_duration_ms", "init_duration_ms",
                                "cpu_usage_avg_vcpus", "mem_usage_mb"))
            record = record._replace(**{field: getattr(record, field) + 1.25e-7})
        records.append(record)
    return records + records[::-1]


def test_placeholders_leave_priced_platforms_alone():
    for name in PRICED:
        assert BILL_CONFIGS[name] == resolve_platform(name)


@pytest.mark.parametrize("normalize", [True, False], ids=["normalize", "no-normalize"])
@pytest.mark.parametrize("name", sorted(BILL_CONFIGS))
def test_keyed_bill_rows_equal_bill_row(name, normalize, monkeypatch):
    config = BILL_CONFIGS[name]
    records = bill_records(seed=len(name))
    want = [
        bill._bill_row(r, config,
                       normalize_allocation(requested(r), config) if normalize else requested(r))
        for r in records
    ]
    # Rows are tuples in _BILL_COLUMNS order, the priced strings last.
    assert {type(row) for row in want} == {tuple} and {len(row) for row in want} == {9}
    keys = [TraceBilling(config, normalize=normalize).key(r) for r in records]
    fields = ("exec_duration_ms", "init_duration_ms", "cpu_usage_avg_vcpus", "mem_usage_mb")
    assert any(micros(getattr(r, f)) is None for r in records for f in fields)
    priced = []

    def counted(*args):
        priced.append(args)
        return compute_cost(*args)

    monkeypatch.setattr(cli, "compute_cost", counted)
    for cap in (TraceBilling.KEYS_CAP, 3):
        monkeypatch.setattr(TraceBilling, "KEYS_CAP", cap)
        priced.clear()
        assert list(bill._bill_rows(records, config, normalize)) == want
        if cap == 3:
            # Past the cap a new key is priced on its own, every time.
            assert len(priced) > len(records) // 2
        else:
            assert len(priced) == len(set(keys))
