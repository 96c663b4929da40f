"""Trace analytics against hand-worked examples and naive oracles."""

import decimal
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faascost.billing.engine import rounded_time
from faascost.billing.model import (
    AllocResourceSpec,
    CpuProportionalToMemory,
    IndependentKnobs,
    PlatformBillingConfig,
    UsageResourceSpec,
)
from faascost.billing.trace_billing import TraceBilling
from faascost.money import CONTEXT, ceil_to, dec
from faascost.traces import (
    InvocationRecord,
    RoundingPolicy,
    cold_start_differential,
    inflation_analysis,
    rounding_up_stats,
    utilization_correlation,
)

from oracle_traces import (
    NeumaierSum,
    oracle_cold_diffs,
    oracle_inflation_totals,
    oracle_inflation_values,
    oracle_pearson,
    oracle_roundup,
    oracle_scatter,
)


def rec(
    exec_ms,
    cpu=0.5,
    mem_used=64.0,
    vcpus=1.0,
    mem_mb=128.0,
    init_ms=0.0,
    cold=None,
    fid="f0",
    iid="i0",
    ts=0.0,
):
    return InvocationRecord(
        function_id=fid,
        instance_id=iid,
        arrival_ts_ms=ts,
        exec_duration_ms=exec_ms,
        init_duration_ms=init_ms,
        is_cold_start=(init_ms > 0) if cold is None else cold,
        alloc_vcpus=vcpus,
        alloc_memory_mb=mem_mb,
        cpu_usage_avg_vcpus=cpu,
        mem_usage_mb=mem_used,
    )


def proportional_config(**over):
    base = dict(
        name="aws_style",
        billable_time_kind="turnaround",
        time_granularity_ms="1",
        time_min_cutoff_ms="0",
        alloc_resources=(
            AllocResourceSpec(
                resource="memory_gb",
                granularity="0.0009765625",
                unit_price_usd_per_unit_second="0.0000166667",
            ),
        ),
        usage_resources=(),
        invocation_fee_usd="0.0000002",
        knob_coupling=CpuProportionalToMemory(mem_per_vcpu_mb="1769"),
    )
    base.update(over)
    return PlatformBillingConfig(**base)


def cpu_time_config():
    return PlatformBillingConfig(
        name="cf_style",
        billable_time_kind="cpu_time_only",
        time_granularity_ms="1",
        time_min_cutoff_ms="0",
        alloc_resources=(),
        usage_resources=(
            UsageResourceSpec(resource="vcpu", granularity="1", billing_basis="absolute"),
        ),
        invocation_fee_usd=None,
        knob_coupling=IndependentKnobs(),
    )


def consumed_memory_config():
    return PlatformBillingConfig(
        name="az_style",
        billable_time_kind="execution",
        time_granularity_ms="1",
        time_min_cutoff_ms="100",
        alloc_resources=(),
        usage_resources=(
            UsageResourceSpec(
                resource="memory_gb",
                granularity="0.125",
                billing_basis="per_billable_second",
            ),
        ),
        invocation_fee_usd=None,
        knob_coupling=IndependentKnobs(),
    )


# inflation_analysis


def test_inflation_exact_double_on_half_utilization():
    r = rec(100.0, cpu=0.5, mem_used=884.5, vcpus=1.0, mem_mb=1769.0)
    rep = inflation_analysis([r], proportional_config())
    assert rep.mean_inflation_cpu == pytest.approx(2.0, abs=1e-12)
    assert rep.mean_inflation_mem == pytest.approx(2.0, abs=1e-12)
    assert rep.billable_vcpu_s_total == pytest.approx(0.1, abs=1e-15)
    assert rep.actual_vcpu_s_total == pytest.approx(0.05, abs=1e-15)
    assert rep.n == 1
    assert rep.flags == []


def test_inflation_counts_init_under_turnaround_billing():
    r = rec(100.0, cpu=1.0, mem_used=1769.0, vcpus=1.0, mem_mb=1769.0, init_ms=100.0)
    rep = inflation_analysis([r], proportional_config())
    # 200 ms billed vs 100 ms fully used
    assert rep.mean_inflation_cpu == pytest.approx(2.0, abs=1e-12)


def test_inflation_cpu_time_only_rounds_each_request_up():
    r = rec(50.0, cpu=0.41, mem_used=64.0)
    rep = inflation_analysis([r], cpu_time_config())
    # 20.5 CPU-ms rounds to 21
    assert rep.billable_vcpu_s_total == pytest.approx(0.021, abs=1e-15)
    assert rep.mean_inflation_cpu == pytest.approx(21.0 / 20.5, rel=1e-12)
    assert rep.billable_gb_s_total is None
    assert rep.mean_inflation_mem is None


def test_inflation_consumed_memory_platform_bills_no_cpu():
    r = rec(30.0, cpu=0.2, mem_used=100.0)
    rep = inflation_analysis([r], consumed_memory_config())
    assert rep.mean_inflation_cpu is None
    assert rep.billable_vcpu_s_total is None
    # cutoff 100 ms, consumed 100 MB rounds to 0.125 GB
    assert rep.billable_gb_s_total == pytest.approx(0.0125, abs=1e-15)
    expected = 0.0125 / (100.0 / 1024.0 * 0.030)
    assert rep.mean_inflation_mem == pytest.approx(expected, rel=1e-12)


def test_inflation_mean_is_ratio_of_totals():
    rs = [
        rec(100.0, cpu=1.0, mem_used=1769.0, vcpus=1.0, mem_mb=1769.0),
        rec(300.0, cpu=0.25, mem_used=884.5, vcpus=1.0, mem_mb=1769.0),
    ]
    rep = inflation_analysis(rs, proportional_config())
    # totals: billable 0.4 vcpu-s vs actual 0.1 + 0.075
    assert rep.mean_inflation_cpu == pytest.approx(0.4 / 0.175, rel=1e-12)


def test_inflation_below_one_is_flagged():
    r = rec(100.0, cpu=2.0, mem_used=64.0, vcpus=1.0, mem_mb=1769.0)
    rep = inflation_analysis([r], proportional_config())
    assert rep.mean_inflation_cpu == pytest.approx(0.5, abs=1e-12)
    assert any("mean_inflation_cpu" in f for f in rep.flags)


def test_inflation_rejects_empty_input():
    with pytest.raises(ValueError, match="no records"):
        inflation_analysis([], proportional_config())


def random_records(rng, n, mixed_alloc=True):
    out = []
    for i in range(n):
        mem = rng.choice([128.0, 512.0, 1769.0, 3538.0]) if mixed_alloc else 1769.0
        v = mem / 1769.0
        out.append(
            rec(
                exec_ms=rng.uniform(0.05, 400.0),
                cpu=rng.uniform(0.0, 1.0) * v,
                mem_used=rng.uniform(0.05, 1.0) * mem,
                vcpus=v,
                mem_mb=mem,
                init_ms=rng.choice([0.0, rng.uniform(1.0, 500.0)]),
                fid=f"f{i % 7}",
                iid=f"i{i % 23}",
                ts=float(i),
            )
        )
    return out


@pytest.mark.parametrize(
    "make_config", [proportional_config, cpu_time_config, consumed_memory_config]
)
def test_inflation_matches_fraction_oracle(make_config):
    rng = random.Random(4242)
    records = random_records(rng, 300)
    config = make_config()
    rep = inflation_analysis(records, config, mapping="direct")
    mapper = lambda r: (r.alloc_vcpus, r.alloc_memory_mb)
    bc, ac, bm, am = oracle_inflation_totals(records, config, mapper)
    assert rep.actual_vcpu_s_total == pytest.approx(ac, rel=1e-12)
    assert rep.actual_gb_s_total == pytest.approx(am, rel=1e-12)
    if bc is None:
        assert rep.billable_vcpu_s_total is None
    else:
        assert rep.billable_vcpu_s_total == pytest.approx(bc, rel=1e-9)
    if bm is None:
        assert rep.billable_gb_s_total is None
    else:
        assert rep.billable_gb_s_total == pytest.approx(bm, rel=1e-9)


def test_inflation_streaming_equals_batch():
    rng = random.Random(7)
    records = random_records(rng, 500)
    rep_list = inflation_analysis(records, proportional_config())
    rep_iter = inflation_analysis(iter(records), proportional_config())
    assert rep_iter.billable_vcpu_s_total == rep_list.billable_vcpu_s_total
    assert rep_iter.mean_inflation_cpu == rep_list.mean_inflation_cpu
    assert rep_iter.vcpu_s_sketch.query(0.5) == rep_list.vcpu_s_sketch.query(0.5)


def mixed_digit_records(seed, n):
    """Random records, every other one cut to 3 decimals so that both the
    integer keys and the Decimal path are taken."""
    out = random_records(random.Random(seed), n)
    for i in range(0, n, 2):
        r = out[i]
        out[i] = r._replace(
            exec_duration_ms=round(r.exec_duration_ms, 3),
            init_duration_ms=round(r.init_duration_ms, 3),
            cpu_usage_avg_vcpus=round(r.cpu_usage_avg_vcpus, 3),
            mem_usage_mb=round(r.mem_usage_mb, 3),
        )
    return out


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(Fraction(str(q)) * len(ordered))) - 1]


@pytest.mark.parametrize(
    "make_config", [proportional_config, cpu_time_config, consumed_memory_config]
)
def test_inflation_percentiles_are_nearest_ranks_of_the_oracle(make_config):
    records = mixed_digit_records(seed=11, n=301)
    config = make_config()
    rep = inflation_analysis(records, config, mapping="direct")
    mapper = lambda r: (r.alloc_vcpus, r.alloc_memory_mb)
    bill_cpu, _, bill_mem, _ = oracle_inflation_values(records, config, mapper)
    for values, dist in ((bill_cpu, rep.vcpu_s_sketch), (bill_mem, rep.gb_s_sketch)):
        if values is None:
            assert dist is None
            continue
        assert len(dist) == len(records)
        assert dist.mean() == pytest.approx(float(sum(values) / len(values)), rel=1e-9)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            want = float(nearest_rank(values, q))
            assert dist.query(q) == pytest.approx(want, rel=1e-9), q
    assert not any("GK" in flag for flag in rep.flags)


def test_inflation_falls_back_to_the_sketch_past_the_key_cap(monkeypatch):
    records = mixed_digit_records(seed=12, n=600)
    config = proportional_config()
    exact = inflation_analysis(records, config, mapping="direct")
    monkeypatch.setattr(TraceBilling, "KEYS_CAP", 16)
    capped = inflation_analysis(records, config, mapping="direct")
    assert any("GK" in flag for flag in capped.flags)
    assert not any("GK" in flag for flag in exact.flags)
    # Totals and means stay exact; percentiles are within eps in rank.
    assert capped.billable_vcpu_s_total == exact.billable_vcpu_s_total
    assert capped.billable_gb_s_total == exact.billable_gb_s_total
    assert capped.mean_inflation_cpu == exact.mean_inflation_cpu
    mapper = lambda r: (r.alloc_vcpus, r.alloc_memory_mb)
    bill_cpu, _, bill_mem, _ = oracle_inflation_values(records, config, mapper)
    n = len(records)
    for values, got, want in ((bill_cpu, capped.vcpu_s_sketch, exact.vcpu_s_sketch),
                              (bill_mem, capped.gb_s_sketch, exact.gb_s_sketch)):
        assert len(got) == n
        assert got.mean() == want.mean()
        ordered = sorted(float(v) for v in values)
        slack = got.sketch.eps * n + 1
        for q in (0.5, 0.9, 0.99):
            value = got.query(q)
            lo = sum(x < value * (1 - 1e-9) for x in ordered) + 1
            hi = sum(x <= value * (1 + 1e-9) for x in ordered)
            target = math.ceil(q * n)
            assert lo - slack <= target <= hi + slack, q


# utilization_correlation


def test_correlation_perfect_and_inverse():
    rng = random.Random(3)
    ups = [rng.uniform(0.1, 0.9) for _ in range(100)]
    same = [rec(10.0, cpu=u, mem_used=u * 128.0, ts=float(i)) for i, u in enumerate(ups)]
    assert utilization_correlation(same).pearson_r == pytest.approx(1.0, abs=1e-12)
    inv = [rec(10.0, cpu=u, mem_used=(1.0 - u) * 128.0) for u in ups]
    assert utilization_correlation(inv).pearson_r == pytest.approx(-1.0, abs=1e-12)


def test_correlation_matches_stdlib_oracle():
    rng = random.Random(11)
    records = random_records(rng, 800)
    got = utilization_correlation(records).pearson_r
    assert got == pytest.approx(oracle_pearson(records), rel=1e-12, abs=1e-12)


def test_correlation_degenerate_inputs():
    # An undefined correlation is reported, with its reason, not raised.
    zero_alloc = rec(10.0, vcpus=0.0, mem_mb=0.0, mem_used=0.0, cpu=0.0)
    for records in ([], [rec(10.0)], [rec(10.0), zero_alloc]):
        res = utilization_correlation(records)
        assert res.pearson_r is None
        assert res.undefined == "fewer than two records with positive allocations"
        assert res.as_dict()["pearson_r"] is None
    flat = [rec(10.0, cpu=0.5, mem_used=64.0) for _ in range(10)]
    res = utilization_correlation(flat)
    assert (res.pearson_r, res.n, res.skipped) == (None, 10, 0)
    assert res.undefined == "zero variance in utilization"
    assert len(res.scatter_x) == 10
    assert set(res.as_dict()) == {"pearson_r", "n", "skipped", "scatter_points", "seed"}
    assert utilization_correlation(random_records(random.Random(1), 20)).undefined is None


def test_correlation_zero_alloc_skipped_and_counted():
    records = [rec(10.0, cpu=0.1 * i, mem_used=6.0 * i) for i in range(1, 5)]
    records.append(rec(10.0, vcpus=0.0, mem_mb=0.0, mem_used=0.0, cpu=0.0))
    res = utilization_correlation(records)
    assert res.n == 4
    assert res.skipped == 1


def test_correlation_reservoir_bounded_and_deterministic():
    rng = random.Random(5)
    records = random_records(rng, 300)
    a = utilization_correlation(records, max_scatter=50, seed=9)
    b = utilization_correlation(records, max_scatter=50, seed=9)
    assert len(a.scatter_x) == len(a.scatter_y) == 50
    assert (a.scatter_x, a.scatter_y) == (b.scatter_x, b.scatter_y)


@pytest.mark.parametrize("max_scatter", [0, 1, 50, 299, 300, 1000])
@pytest.mark.parametrize("seed", [0, 9])
def test_correlation_scatter_equals_the_tuple_reservoir(max_scatter, seed):
    # Below, at and above the cap, the arrays hold the points, in the order,
    # that a list of (x, y) tuples fed by the same random draws holds.
    records = random_records(random.Random(seed + 40), 300)
    records.insert(17, rec(10.0, vcpus=0.0, mem_mb=0.0, mem_used=0.0, cpu=0.0))
    expected = oracle_scatter(records, max_scatter, seed)
    got = utilization_correlation(records, max_scatter=max_scatter, seed=seed)
    assert list(zip(got.scatter_x, got.scatter_y)) == expected
    assert got.as_dict()["scatter_points"] == len(expected)


def test_correlation_scatter_point_costs_at_most_20_bytes():
    # Two arrays of doubles: 16 B a point and the arrays' spare room; a list
    # of (x, y) tuples held about 112 B a point.
    records = random_records(random.Random(8), 20_000, mixed_alloc=False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = utilization_correlation(records)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.as_dict()["scatter_points"] == 20_000
    assert held / 20_000 <= 20


# cold_start_differential


def test_cold_start_break_even_counts_as_nonpositive():
    # init 100 ms at 1 vCPU, one request of 100 ms at 1 vCPU
    r = rec(100.0, vcpus=1.0, mem_mb=1769.0, init_ms=100.0, cold=True, iid="a")
    rep = cold_start_differential([r], collect=True)
    d = rep.diffs[0]
    assert d.subsequent_vcpu_s - d.init_vcpu_s == pytest.approx(0.0, abs=1e-12)
    assert rep.fraction_nonpositive == 1.0


def test_cold_start_negative_differential():
    rows = [
        rec(30.0, init_ms=200.0, cold=True, iid="b", ts=0.0),
        rec(20.0, iid="b", ts=1.0),
    ]
    rep = cold_start_differential(rows, collect=True)
    d = rep.diffs[0]
    assert d.subsequent_vcpu_s < d.init_vcpu_s
    assert d.subsequent_vcpu_s == pytest.approx(0.05, abs=1e-12)
    assert d.init_vcpu_s == pytest.approx(0.2, abs=1e-12)


def test_cold_start_fraction_and_warm_only():
    rows = [
        rec(100.0, init_ms=50.0, cold=True, iid="c1", ts=0.0),
        rec(10.0, init_ms=500.0, cold=True, iid="c2", ts=1.0),
        rec(10.0, iid="w1", ts=2.0),
    ]
    rep = cold_start_differential(rows)
    assert rep.n_cold_instances == 2
    assert rep.n_warm_only_instances == 1
    assert rep.fraction_nonpositive == pytest.approx(0.5)


_exec_ms = st.floats(min_value=0.0, max_value=2.0**40)
_sum_rows = st.lists(
    st.tuples(
        _exec_ms,
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from([0.083, 1.0, 3.0, 64.0]),
        st.sampled_from([128.0, 1769.0, 10240.0]),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_sum_rows)
# Memory utilization variance whose product with the CPU variance underflows.
@example([(0.0, "a", 0.083, 128.0, 0.0, 2.4489991711572115e-157),
          (0.0, "a", 0.083, 128.0, 0.5, 2.4489991711572115e-157)])
def test_compensated_sums_equal_the_reference_bit_for_bit(rows):
    # Inflation's actual totals, the correlation's five sums and each cold
    # start instance's two sums all take the step the analytics first wrote
    # as _Sum.add; the per-instance pairs live in flat slots.
    records = [
        rec(exec_ms, cpu=cpu * vcpus, mem_used=mem * mem_mb, vcpus=vcpus, mem_mb=mem_mb,
            init_ms=1.0, cold=True, iid=iid, ts=float(i))
        for i, (exec_ms, iid, vcpus, mem_mb, cpu, mem) in enumerate(rows)
    ]
    actual_cpu, actual_mem = NeumaierSum(), NeumaierSum()
    sx, sy, sxx, syy, sxy = (NeumaierSum() for _ in range(5))
    per_instance = {}
    for r in records:
        exec_s = r.exec_duration_ms / 1000.0
        actual_cpu.add(r.cpu_usage_avg_vcpus * r.exec_duration_ms / 1000.0)
        actual_mem.add(r.mem_usage_mb / 1024.0 * exec_s)
        x = r.cpu_usage_avg_vcpus / r.alloc_vcpus
        y = r.mem_usage_mb / r.alloc_memory_mb
        for total, value in ((sx, x), (sy, y), (sxx, x * x), (syy, y * y), (sxy, x * y)):
            total.add(value)
        vcpu_sum, gb_sum = per_instance.setdefault(
            r.instance_id, (NeumaierSum(), NeumaierSum())
        )
        vcpu_sum.add(r.alloc_vcpus * exec_s)
        gb_sum.add(r.alloc_memory_mb / 1024.0 * exec_s)

    report = inflation_analysis(records, proportional_config(), mapping="direct")
    assert report.actual_vcpu_s_total.hex() == actual_cpu.value().hex()
    assert report.actual_gb_s_total.hex() == actual_mem.value().hex()

    n = len(records)
    var_x = n * sxx.value() - sx.value() ** 2
    var_y = n * syy.value() - sy.value() ** 2
    if n < 2 or var_x <= 0.0 or var_y <= 0.0:
        undefined = utilization_correlation(records)
        assert undefined.pearson_r is None and undefined.undefined
    else:
        r = (n * sxy.value() - sx.value() * sy.value()) / (
            math.sqrt(var_x) * math.sqrt(var_y)
        )
        assert utilization_correlation(records).pearson_r.hex() == r.hex()

    cold = cold_start_differential(records, collect=True)
    got = {d.instance_key: (d.subsequent_vcpu_s, d.subsequent_gb_s) for d in cold.diffs}
    assert got.keys() == per_instance.keys()
    for key, (vcpu_sum, gb_sum) in per_instance.items():
        assert got[key][0].hex() == vcpu_sum.value().hex()
        assert got[key][1].hex() == gb_sum.value().hex()


def test_cold_start_matches_oracle_and_partitions_exec_time():
    rng = random.Random(21)
    rows = []
    for i in range(60):
        iid = f"inst{i}"
        rows.append(
            rec(
                rng.uniform(1, 300),
                init_ms=rng.uniform(1, 400),
                cold=True,
                iid=iid,
                ts=i * 1000.0,
                vcpus=rng.choice([0.5, 1.0, 2.0]),
            )
        )
        for j in range(rng.randrange(0, 4)):
            rows.append(
                rec(
                    rng.uniform(1, 300),
                    iid=iid,
                    ts=i * 1000.0 + j + 1,
                    vcpus=rows[-1].alloc_vcpus,
                )
            )
    rep = cold_start_differential(rows, collect=True)
    oracle = oracle_cold_diffs(rows)
    assert rep.n_cold_instances == len(oracle)
    for d in rep.diffs:
        iv, ig, sv, sg = oracle[d.instance_key]
        assert d.init_vcpu_s == pytest.approx(iv, rel=1e-12, abs=1e-15)
        assert d.subsequent_vcpu_s == pytest.approx(sv, rel=1e-12, abs=1e-15)
        assert d.subsequent_gb_s == pytest.approx(sg, rel=1e-12, abs=1e-15)
    total_exec_vcpu_s = math.fsum(
        r.alloc_vcpus * r.exec_duration_ms / 1000.0 for r in rows
    )
    assert math.fsum(d.subsequent_vcpu_s for d in rep.diffs) == pytest.approx(
        total_exec_vcpu_s, rel=1e-12
    )


def test_cold_start_sessionization_fallback():
    # no instance ids: sessions split at cold starts and at long gaps
    rows = [
        rec(10.0, init_ms=5.0, cold=True, iid="", fid="f", ts=0.0),
        rec(10.0, iid="", fid="f", ts=1_000.0),
        rec(10.0, init_ms=7.0, cold=True, iid="", fid="f", ts=2_000.0),
        # same function, past the gap threshold, not marked cold
        rec(10.0, iid="", fid="f", ts=10_000_000.0),
    ]
    rep = cold_start_differential(rows, session_gap_ms=900_000.0, collect=True)
    assert rep.n_instances == 3
    assert rep.n_cold_instances == 2
    first = rep.diffs[0]
    assert first.subsequent_vcpu_s == pytest.approx(0.02, abs=1e-12)


def test_cold_start_sessions_stay_apart_from_instance_ids():
    # g's instance id reads like f's first session key, and is another instance.
    rows = [
        rec(10.0, init_ms=5.0, cold=True, iid="", fid="f", ts=0.0),
        rec(10.0, cold=False, iid="f#s0", fid="g", ts=1.0),
    ]
    rep = cold_start_differential(rows, collect=True)
    assert rep.n_instances == 2
    assert rep.n_warm_only_instances == 1
    (first,) = rep.diffs
    assert (first.instance_key, first.function_id) == ("f#s0", "f")
    assert first.subsequent_vcpu_s == pytest.approx(0.01, abs=1e-12)


def test_cold_start_zero_init_flagged():
    rows = [rec(10.0, init_ms=0.0, cold=True, iid="z")]
    rep = cold_start_differential(rows)
    assert rep.n_zero_init == 1
    assert any("zero init" in f for f in rep.flags)


def test_cold_start_empty_raises():
    with pytest.raises(ValueError, match="no records"):
        cold_start_differential([])


# rounding_up_stats


def test_roundup_zero_for_exact_multiples():
    rows = [rec(100.0 * k) for k in range(1, 6)]
    pol = RoundingPolicy(name="g100", time_granularity_ms=100.0)
    (stats,) = rounding_up_stats(rows, [pol])
    assert stats.mean_time_roundup_ms == pytest.approx(0.0, abs=1e-12)
    assert stats.mean_mem_roundup_gb_s is None


def test_roundup_cutoff_dominates_short_requests():
    rows = [rec(30.0)]
    pol = RoundingPolicy(name="az", time_granularity_ms=1.0, time_min_cutoff_ms=100.0)
    (stats,) = rounding_up_stats(rows, [pol])
    assert stats.mean_time_roundup_ms == pytest.approx(70.0, abs=1e-12)


def test_roundup_memory_effect_isolated_from_time():
    # 100 MB consumed rounds to 128 MB; weighted by raw 2 s execution
    rows = [rec(2000.0, mem_used=100.0)]
    pol = RoundingPolicy(
        name="az", time_granularity_ms=1.0, time_min_cutoff_ms=0.0,
        mem_granularity_gb=0.125,
    )
    (stats,) = rounding_up_stats(rows, [pol])
    expected = (0.125 - 100.0 / 1024.0) * 2.0
    assert stats.mean_mem_roundup_gb_s == pytest.approx(expected, rel=1e-12)
    assert stats.mean_time_roundup_ms == pytest.approx(0.0, abs=1e-12)


def test_roundup_short_requests_filtered():
    rows = [rec(0.4), rec(150.0)]
    pol = RoundingPolicy(name="g100", time_granularity_ms=100.0)
    (stats,) = rounding_up_stats(rows, [pol])
    assert stats.n == 1
    assert stats.n_skipped_short == 1
    assert stats.mean_time_roundup_ms == pytest.approx(50.0, abs=1e-12)


def test_roundup_matches_fraction_oracle_across_policies():
    rng = random.Random(31)
    rows = random_records(rng, 400)
    policies = [
        RoundingPolicy(name="ms", time_granularity_ms=1.0),
        RoundingPolicy(name="100ms", time_granularity_ms=100.0),
        RoundingPolicy(
            name="az",
            time_granularity_ms=1.0,
            time_min_cutoff_ms=100.0,
            mem_granularity_gb=0.125,
        ),
    ]
    all_stats = rounding_up_stats(rows, policies)
    for pol, got in zip(policies, all_stats):
        mean_t, mean_m, n = oracle_roundup(rows, pol)
        assert got.n == n
        assert got.mean_time_roundup_ms == pytest.approx(mean_t, rel=1e-9, abs=1e-12)
        if mean_m is None:
            assert got.mean_mem_roundup_gb_s is None
        else:
            assert got.mean_mem_roundup_gb_s == pytest.approx(mean_m, rel=1e-9, abs=1e-12)


def test_roundup_rejects_empty_policy_list_and_all_short():
    with pytest.raises(ValueError, match="no policies"):
        rounding_up_stats([rec(10.0)], [])
    pol = RoundingPolicy(name="g", time_granularity_ms=1.0)
    with pytest.raises(ValueError, match="floor"):
        rounding_up_stats([rec(0.5)], [pol])


def test_roundup_integer_and_decimal_paths_agree_exactly():
    rows = mixed_digit_records(seed=13, n=400)
    policies = [
        RoundingPolicy(name="ms", time_granularity_ms=1.0, mem_granularity_gb=0.125),
        RoundingPolicy(name="az", time_granularity_ms=1.0, time_min_cutoff_ms=100.0),
        # Finer than 10^-6 ms and MB: every record takes the Decimal path here.
        RoundingPolicy(name="fine", time_granularity_ms="0.0000003",
                       mem_granularity_gb="0.0000001"),
    ]
    kept = [r for r in rows if r.exec_duration_ms >= 1.0]
    for pol, got in zip(policies, rounding_up_stats(rows, policies)):
        # The all-Decimal computation, record by record.
        time_sum = mem_sum = Decimal(0)
        with decimal.localcontext(CONTEXT):
            for r in kept:
                exec_ms = dec(r.exec_duration_ms)
                billed = rounded_time(exec_ms, pol.time_granularity_ms,
                                      pol.time_min_cutoff_ms)
                time_sum += billed - exec_ms
                if pol.mem_granularity_gb is not None:
                    gb = dec(r.mem_usage_mb) * Decimal("0.0009765625")
                    mem_sum += (ceil_to(gb, pol.mem_granularity_gb) - gb) * exec_ms
        assert got.n == len(kept)
        assert got.mean_time_roundup_ms == float(Fraction(time_sum) / len(kept))
        if pol.mem_granularity_gb is None:
            assert got.mean_mem_roundup_gb_s is None
        else:
            assert got.mean_mem_roundup_gb_s == float(
                Fraction(mem_sum) / (1000 * len(kept))
            )
