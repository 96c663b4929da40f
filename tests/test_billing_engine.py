"""Billing engine behavior: documented examples plus invariants."""

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faascost.billing.engine import (
    billable_time,
    compute_cost,
    fee_equivalent_walltime,
    normalize_allocation,
)
from faascost.billing.model import (
    AllocResourceSpec,
    BillingError,
    CpuProportionalToMemory,
    FixedCombos,
    IndependentKnobs,
    MissingGranularityError,
    MissingPriceError,
    PlatformBillingConfig,
    RatioConstrained,
    ResourceAllocation,
    UnpricedResourceError,
    UsageResourceSpec,
    allocation,
)
from faascost.traces.records import InvocationRecord


def make_config(**overrides):
    base = dict(
        name="test",
        billable_time_kind="execution",
        time_granularity_ms=Decimal(1),
        time_min_cutoff_ms=Decimal(0),
        alloc_resources=(),
        usage_resources=(),
        invocation_fee_usd=Decimal(0),
        knob_coupling=IndependentKnobs(),
    )
    base.update(overrides)
    return PlatformBillingConfig(**base)


AWS_STYLE = make_config(
    name="aws-style",
    billable_time_kind="turnaround",
    alloc_resources=(
        AllocResourceSpec("memory_gb", Decimal("0.0009765625"), Decimal("0.0000166667")),
    ),
    invocation_fee_usd=Decimal("0.0000002"),
    knob_coupling=CpuProportionalToMemory(Decimal(1769)),
)


def make_record(exec_ms=0.0, init_ms=0.0, vcpus=0.0, mem_mb=0.0, cpu=0.0, mem_usage=0.0,
                cold=False):
    return InvocationRecord(
        function_id="f",
        instance_id="i",
        arrival_ts_ms=0.0,
        exec_duration_ms=exec_ms,
        init_duration_ms=init_ms,
        is_cold_start=cold,
        alloc_vcpus=vcpus,
        alloc_memory_mb=mem_mb,
        cpu_usage_avg_vcpus=cpu,
        mem_usage_mb=mem_usage,
    )


# --- billable_time -----------------------------------------------------------


def test_billable_time_rounds_up_to_granularity():
    cfg = make_config(time_granularity_ms=Decimal(100))
    assert billable_time("58.19", 0, cfg) == Decimal(100)


def test_billable_time_cutoff_applies_before_rounding():
    cfg = make_config(time_granularity_ms=Decimal(100), time_min_cutoff_ms=Decimal(1000))
    assert billable_time(1, 0, cfg) == Decimal(1000)


def test_billable_time_turnaround_adds_init():
    cfg = make_config(billable_time_kind="turnaround")
    assert billable_time(250, 50, cfg) == Decimal(300)


def test_billable_time_execution_ignores_init():
    cfg = make_config(time_granularity_ms=Decimal(100))
    assert billable_time(250, 50, cfg) == Decimal(300)
    assert billable_time(201, 50, cfg) == Decimal(300)


def test_billable_time_zero_stays_zero():
    assert billable_time(0, 0, make_config()) == Decimal(0)


def test_billable_time_requires_granularity():
    cfg = make_config(time_granularity_ms=None)
    with pytest.raises(MissingGranularityError):
        billable_time(10, 0, cfg)


@given(st.decimals(min_value=0, max_value=10**6, places=4))
def test_billable_time_idempotent(t):
    cfg = make_config(time_granularity_ms=Decimal("0.5"), time_min_cutoff_ms=Decimal(10))
    once = billable_time(t, 0, cfg)
    assert billable_time(once, 0, cfg) == once


@given(st.decimals(min_value=Decimal("0.0001"), max_value=10**6, places=4))
def test_billable_time_floor_is_max_of_granularity_and_cutoff(t):
    cfg = make_config(time_granularity_ms=Decimal(100), time_min_cutoff_ms=Decimal(250))
    assert billable_time(t, 0, cfg) >= max(Decimal(100), Decimal(250))


# --- normalize_allocation ----------------------------------------------------


def test_normalize_proportional_derives_vcpus():
    got = normalize_allocation(allocation(0, 1769), AWS_STYLE)
    assert got.vcpus == Decimal(1)
    assert got.memory_mb == Decimal(1769)


def test_normalize_proportional_raises_memory_for_cpu_request():
    got = normalize_allocation(allocation(2, 1769), AWS_STYLE)
    assert got.memory_mb == Decimal(3538)
    assert got.vcpus == Decimal(2)


def test_normalize_independent_identity():
    cfg = make_config()
    req = allocation(0, 0)
    assert normalize_allocation(req, cfg) == req


def test_normalize_ratio_constrained_raises_vcpu():
    cfg = make_config(
        knob_coupling=RatioConstrained(
            Decimal("0.25"), Decimal(1), Decimal("0.05"), Decimal(64)
        )
    )
    got = normalize_allocation(allocation(1, 5000), cfg)
    assert got.vcpus == Decimal("1.25")
    assert got.memory_mb == Decimal(5056)  # 5000 rounded up to the 64 MB step


def test_normalize_ratio_constrained_raises_memory():
    cfg = make_config(
        knob_coupling=RatioConstrained(
            Decimal("0.25"), Decimal(1), Decimal("0.05"), Decimal(64)
        )
    )
    got = normalize_allocation(allocation(4, 1024), cfg)
    assert got.vcpus == Decimal(4)
    assert got.memory_mb >= Decimal(4096)  # at least 4 GB for 4 vCPUs at 1:1
    assert got.vcpus / (got.memory_mb / 1024) <= Decimal(1)


def test_normalize_fixed_combos_picks_smallest_satisfying():
    cfg = make_config(
        knob_coupling=FixedCombos(
            ((Decimal("0.5"), Decimal(1024)), (Decimal(1), Decimal(2048)), (Decimal(2), Decimal(4096)))
        )
    )
    got = normalize_allocation(allocation("0.6", 900), cfg)
    assert (got.vcpus, got.memory_mb) == (Decimal(1), Decimal(2048))


def test_normalize_fixed_combos_exceeds_maximum():
    cfg = make_config(knob_coupling=FixedCombos(((Decimal(1), Decimal(2048)),)))
    with pytest.raises(BillingError, match="exceeds platform maximum"):
        normalize_allocation(allocation(0, 4096), cfg)


request_allocs = st.builds(
    allocation,
    st.decimals(min_value=0, max_value=8, places=2),
    st.decimals(min_value=0, max_value=16384, places=1),
)

couplings = st.one_of(
    st.just(IndependentKnobs()),
    st.just(CpuProportionalToMemory(Decimal(1769))),
    st.just(CpuProportionalToMemory(Decimal(2048))),
    st.just(
        RatioConstrained(Decimal("0.25"), Decimal(1), Decimal("0.05"), Decimal(64))
    ),
)


@settings(max_examples=200)
@given(request_allocs, couplings)
def test_normalize_idempotent_and_never_decreases(req, coupling):
    cfg = make_config(knob_coupling=coupling)
    once = normalize_allocation(req, cfg)
    assert once.vcpus >= req.vcpus
    assert once.memory_mb >= req.memory_mb
    again = normalize_allocation(once, cfg)
    assert (again.vcpus, again.memory_mb) == (once.vcpus, once.memory_mb)


# --- compute_cost ------------------------------------------------------------


def test_zero_record_costs_only_the_fee():
    record = make_record()
    breakdown = compute_cost(record, AWS_STYLE)
    assert breakdown.total_usd == Decimal("0.0000002")
    assert breakdown.billable_time_ms == 0


def test_cost_breakdown_total_is_exact_sum():
    record = make_record(exec_ms=96.0, mem_mb=128.0)
    breakdown = compute_cost(record, AWS_STYLE)
    parts = breakdown.fee_usd
    for _, usd in breakdown.alloc_terms.values():
        parts += usd
    assert breakdown.total_usd == parts


def test_fee_equals_96ms_alloc_charge_within_rounding():
    # The charge for ~96 ms at 128 MB matches the fixed invocation fee.
    record = make_record(exec_ms=96.0, mem_mb=128.0)
    breakdown = compute_cost(record, AWS_STYLE)
    alloc_usd = breakdown.alloc_terms["memory_gb"][1]
    assert abs(alloc_usd - breakdown.fee_usd) < Decimal("1e-9")


def test_unpriced_extra_resource_rejected():
    record = make_record(exec_ms=10, mem_mb=128.0)
    with pytest.raises(UnpricedResourceError, match="unpriced resource"):
        compute_cost(record, AWS_STYLE, allocation(0, 128, gpu=1))


def test_missing_price_raises_when_amount_positive():
    cfg = make_config(
        alloc_resources=(AllocResourceSpec("memory_gb", Decimal("0.125"), None),),
    )
    record = make_record(exec_ms=10, mem_mb=128.0)
    with pytest.raises(MissingPriceError):
        compute_cost(record, cfg)


def test_missing_price_tolerated_at_zero_amount():
    cfg = make_config(
        alloc_resources=(AllocResourceSpec("memory_gb", Decimal("0.125"), None),),
        invocation_fee_usd=Decimal(0),
    )
    record = make_record(exec_ms=10)
    assert compute_cost(record, cfg).total_usd == 0


def test_cpu_time_only_bills_consumed_cpu():
    cfg = make_config(
        billable_time_kind="cpu_time_only",
        usage_resources=(
            UsageResourceSpec("vcpu", Decimal(1), Decimal("0.00000002"), "absolute"),
        ),
    )
    # 0.5 vCPU average over 10 ms -> 5 CPU-ms billable.
    record = make_record(exec_ms=10, init_ms=500, cpu=0.5)
    breakdown = compute_cost(record, cfg)
    assert breakdown.billable_time_ms == Decimal(5)
    assert breakdown.usage_terms["vcpu"][0] == Decimal(5)


def test_per_billable_second_usage_memory():
    cfg = make_config(
        time_granularity_ms=Decimal(1),
        time_min_cutoff_ms=Decimal(100),
        usage_resources=(
            UsageResourceSpec(
                "memory_gb", Decimal("0.125"), Decimal("0.000016"), "per_billable_second"
            ),
        ),
    )
    # 100 MB peak -> rounded to 128 MB; 50 ms exec -> 100 ms cutoff.
    record = make_record(exec_ms=50, mem_usage=100)
    breakdown = compute_cost(record, cfg)
    amount, usd = breakdown.usage_terms["memory_gb"]
    assert amount == Decimal("0.125")
    assert usd == Decimal("0.125") * Decimal("0.1") * Decimal("0.000016")


durations = st.decimals(min_value=0, max_value=10**5, places=3)


@settings(max_examples=150)
@given(durations, durations, st.decimals(min_value=0, max_value=8192, places=1))
def test_cost_monotone_in_time_and_allocation(t1, t2, mem):
    lo, hi = sorted((t1, t2))
    rec_lo = make_record(exec_ms=float(lo), mem_mb=float(mem))
    rec_hi = make_record(exec_ms=float(hi), mem_mb=float(mem))
    assert compute_cost(rec_lo, AWS_STYLE).total_usd <= compute_cost(rec_hi, AWS_STYLE).total_usd
    rec_more_mem = make_record(exec_ms=float(lo), mem_mb=float(mem + 64))
    assert (
        compute_cost(rec_lo, AWS_STYLE).total_usd
        <= compute_cost(rec_more_mem, AWS_STYLE).total_usd
    )


# --- fee_equivalent_walltime -------------------------------------------------


def test_fee_equivalent_walltime_aws_128mb():
    got = fee_equivalent_walltime(AWS_STYLE, allocation(0, 128))
    assert abs(got - Decimal(96)) < Decimal("0.5")


def test_fee_equivalent_walltime_zero_fee():
    cfg = make_config(
        alloc_resources=(
            AllocResourceSpec("memory_gb", Decimal("0.0009765625"), Decimal("0.0000166667")),
        ),
        invocation_fee_usd=Decimal(0),
    )
    assert fee_equivalent_walltime(cfg, allocation(0, 128)) == 0


def test_fee_equivalent_walltime_no_priced_allocation():
    with pytest.raises(BillingError, match="no time equivalent"):
        fee_equivalent_walltime(AWS_STYLE, allocation(0, 0))


@given(st.integers(min_value=1, max_value=512))
def test_fee_equivalent_halves_when_allocation_doubles(mb_blocks):
    # Amounts are exact multiples of the 1 MB granularity, so alloc pricing
    # is linear and doubling memory halves the equivalent wall time.
    mem = mb_blocks
    one = fee_equivalent_walltime(AWS_STYLE, allocation(0, mem))
    two = fee_equivalent_walltime(AWS_STYLE, allocation(0, 2 * mem))
    # test-side arithmetic runs at the default 28-digit context
    assert abs(two * 2 - one) <= one * Decimal("1e-20")
