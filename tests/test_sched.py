"""Bandwidth-control models: closed form, simulator, sweeps."""

import math
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faascost.sched import (
    BandwidthControlConfig,
    SchedulingError,
    TaskSpec,
    closed_form_duration,
    duration_curve,
    fraction_grid,
    quantization_breakpoints,
    quota_grid,
    simulate,
)
from faascost.sched.simulator import _first_tick_after
from faascost.sched.types import RUNNING, THROTTLED

from oracle_sched import (
    oracle_completion_ms,
    oracle_exact_segments_us,
    oracle_ideal_ms,
    oracle_lagged_run_us,
)


# Millisecond values with at most 3 decimals stay exact in microseconds.
ms_values = st.integers(min_value=1, max_value=200_000).map(lambda n: n / 1000)


# ---------------------------------------------------------------- closed form


def test_closed_form_worked_examples():
    # 10 ms of demand inside the first 10 ms quota: never throttled.
    assert closed_form_duration(TaskSpec(10), 20, 10) == 10.0
    # 33.1 ms: three full periods plus a 3.1 ms residue.
    assert closed_form_duration(TaskSpec(33.1), 20, 10) == 63.1
    # Exact multiple: the last period contributes only its quota.
    assert closed_form_duration(TaskSpec(20), 20, 10) == 30.0


def test_closed_form_rejects_quota_above_period():
    with pytest.raises(SchedulingError):
        closed_form_duration(TaskSpec(10), 20, 20.001)


def test_closed_form_rejects_nonpositive():
    with pytest.raises(SchedulingError):
        closed_form_duration(TaskSpec(10), 20, 0)
    with pytest.raises(SchedulingError):
        closed_form_duration(TaskSpec(10), 0, 0)
    with pytest.raises(SchedulingError):
        TaskSpec(0)


@st.composite
def bounded_triples(draw):
    # Cap t/q so the period-stepping oracle stays fast.
    q_us = draw(st.integers(min_value=1, max_value=100_000))
    p_us = draw(st.integers(min_value=q_us, max_value=200_000))
    t_us = draw(st.integers(min_value=1, max_value=min(200_000, q_us * 500)))
    return t_us / 1000, p_us / 1000, q_us / 1000


@given(bounded_triples())
@settings(deadline=None)
def test_closed_form_matches_period_stepping_oracle(tpq):
    t, p, q = tpq
    got = closed_form_duration(TaskSpec(t), p, q)
    assert got == pytest.approx(float(oracle_completion_ms(t, p, q)), rel=1e-12)


@given(t=ms_values, p=ms_values, q=ms_values)
def test_closed_form_bounds_and_sign(t, p, q):
    if q > p:
        q, p = p, q
    d = closed_form_duration(TaskSpec(t), p, q)
    ideal = float(oracle_ideal_ms(t, p, q))
    # Quota arrives at the start of each period, so completion never
    # exceeds the even-rate ideal, and the task can't beat its own demand.
    assert t <= d <= ideal + 1e-9


@given(t=ms_values, p=ms_values, q1=ms_values, q2=ms_values)
def test_closed_form_monotone_in_quota(t, p, q1, q2):
    q1, q2 = sorted((min(q1, p), min(q2, p)))
    d1 = closed_form_duration(TaskSpec(t), p, q1)
    d2 = closed_form_duration(TaskSpec(t), p, q2)
    assert d2 <= d1 + 1e-9


# ------------------------------------------------------------------ simulator


def test_small_quota_pathology_exact_segments():
    # 33.1 ms of demand, 1.45 ms quota per 20 ms period, 250 Hz ticks:
    # the task overruns to the first tick at 4 ms (2.55 ms of debt), and
    # the refills at 20 and 40 ms both go to repayment, producing the
    # 4 / 36 / 4 / 56 ms run/throttle opening.
    tl = simulate(TaskSpec(33.1), BandwidthControlConfig(period_ms=20, quota_ms=1.45))
    opening = [(s.start_ms, s.end_ms, s.state) for s in tl.segments[:4]]
    assert opening == [
        (0.0, 4.0, RUNNING),
        (4.0, 40.0, THROTTLED),
        (40.0, 44.0, RUNNING),
        (44.0, 100.0, THROTTLED),
    ]
    assert tl.overruns_ms[0] == 2.55
    assert sum(tl.obtained_runtimes_us) == 33_100
    assert tl.segments[-1].state == RUNNING


def test_pathology_throttles_dwarf_ideal_wait():
    # The same run's throttle intervals: an even-rate model predicts
    # waits of period - quota = 18.55 ms, the simulator shows 36+ ms.
    tl = simulate(TaskSpec(33.1), BandwidthControlConfig(period_ms=20, quota_ms=1.45))
    assert max(tl.throttle_durations) >= 2 * (20 - 1.45)


@given(
    t=ms_values,
    p=st.integers(min_value=2, max_value=100_000).map(lambda n: n / 1000),
    fnum=st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_work_conservation_exact(t, p, fnum):
    q_us = max(1, round(fnum / 1000 * p * 1000))
    q = q_us / 1000
    for lagged in (True, False):
        tl = simulate(
            TaskSpec(t),
            BandwidthControlConfig(period_ms=p, quota_ms=q),
            lagged_accounting=lagged,
        )
        # Running segments account for exactly the demanded CPU time.
        assert sum(tl.obtained_runtimes_us) == round(t * 1000)
        assert tl.segments[-1].state == RUNNING
        assert tl.segments[-1].end_us == tl.completion_us


def test_continuous_accounting_matches_closed_form():
    rng = random.Random(7)
    for _ in range(100):
        t = rng.randint(1, 100_000) / 1000
        p = rng.randint(2, 50_000) / 1000
        q = rng.randint(1, round(p * 1000)) / 1000
        tl = simulate(
            TaskSpec(t),
            BandwidthControlConfig(period_ms=p, quota_ms=q),
            lagged_accounting=False,
        )
        assert tl.completion_ms == pytest.approx(
            closed_form_duration(TaskSpec(t), p, q), abs=1e-9
        )
        assert tl.overruns_us == ()


@given(
    tpq=bounded_triples(),
    hz=st.sampled_from([1, 250, 300, 1000, 1_000_000]),
    slice_us=st.integers(min_value=1, max_value=20_000),
    flavor=st.sampled_from(["cfs", "eevdf"]),
    phase_us=st.integers(min_value=0, max_value=20_000),
)
@example(tpq=(33.1, 20, 20), hz=250, slice_us=5_000, flavor="cfs", phase_us=0)  # Q == P
@example(tpq=(20, 20, 10), hz=250, slice_us=5_000, flavor="cfs", phase_us=0)  # T = 2Q
@example(tpq=(0.5, 20, 1.45), hz=250, slice_us=5_000, flavor="eevdf", phase_us=0)  # T < Q
@example(tpq=(0.05, 20, 0.001), hz=1000, slice_us=1, flavor="cfs", phase_us=0)  # Q = 1 us
@example(tpq=(33.1, 20, 1.45), hz=300, slice_us=2_000, flavor="eevdf", phase_us=1_234)
@settings(deadline=None)
def test_exact_accounting_is_the_period_stepping_timeline(tpq, hz, slice_us, flavor, phase_us):
    # Exact accounting is evaluated in closed form, whatever the tick,
    # slice, flavor and tick phase; the oracle steps it period by period.
    t, p, q = tpq
    cfg = BandwidthControlConfig(
        period_ms=p, quota_ms=q, tick_hz=hz, slice_ms=slice_us / 1000, flavor=flavor
    )
    tl = simulate(TaskSpec(t), cfg, lagged_accounting=False, tick_phase_ms=phase_us / 1000)
    segments, completion = oracle_exact_segments_us(
        round(t * 1000), round(p * 1000), round(q * 1000)
    )
    assert [tuple(seg) for seg in tl.segments] == segments
    assert tl.completion_us == completion
    assert Fraction(completion, 1000) == oracle_completion_ms(t, p, q)
    assert tl.overruns_us == ()
    (pt,) = duration_curve(
        TaskSpec(t), p, [q / p], tick_hz=hz, slice_ms=slice_us / 1000, flavor=flavor,
        lagged_accounting=False,
    ).points
    assert pt.quota_ms == q
    assert pt.completion_ms == completion / 1000
    assert pt.n_throttles == sum(state == THROTTLED for _, _, state in segments)


@st.composite
def lagged_triples(draw):
    # Demand, period and quota in us. The oracle steps each running us and
    # each refill, so demand stays below 20 ms and 200 quotas.
    q_us = draw(st.integers(min_value=1, max_value=50_000))
    p_us = draw(st.integers(min_value=q_us, max_value=100_000))
    t_us = draw(st.integers(min_value=1, max_value=min(20_000, q_us * 200)))
    return t_us, p_us, q_us


@given(
    tpq=lagged_triples(),
    hz=st.sampled_from([100, 250, 300, 1000]),
    slice_us=st.integers(min_value=1, max_value=20_000),
    flavor=st.sampled_from(["cfs", "eevdf"]),
    phase_us=st.integers(min_value=0, max_value=20_000),
)
# A tick at a refill: the 4 ms tick throttles, and the refill at that
# instant repays only part of the debt, so the task runs again at 8 ms.
@example(tpq=(10_000, 4_000, 2_000), hz=250, slice_us=5_000, flavor="cfs", phase_us=0)
# A tick at a refill that repays the whole debt: no throttle has length.
@example(tpq=(10_000, 4_000, 3_000), hz=250, slice_us=5_000, flavor="cfs", phase_us=0)
# A completion at a tick, in debt: the completion charges it, not the tick.
@example(tpq=(4_000, 20_000, 1_450), hz=250, slice_us=5_000, flavor="cfs", phase_us=0)
# A slice mark at a tick, under eevdf.
@example(tpq=(10_000, 20_000, 5_000), hz=250, slice_us=4_000, flavor="eevdf", phase_us=0)
# 300 Hz ticks from a 2 ms phase: 5.333, 8.666, 12 ms, ...
@example(tpq=(33_100, 20_000, 1_450), hz=300, slice_us=5_000, flavor="cfs", phase_us=2_000)
# Q == P: each throttle, at a tick on a refill, ends at that refill.
@example(tpq=(20_000, 5_000, 5_000), hz=1000, slice_us=5_000, flavor="cfs", phase_us=0)
@settings(deadline=None)
def test_lagged_accounting_is_the_microsecond_stepping_timeline(
    tpq, hz, slice_us, flavor, phase_us
):
    # The event loop against an oracle that steps every running
    # microsecond: segments, completion and every overrun.
    t, p, q = tpq
    cfg = BandwidthControlConfig(
        period_ms=p / 1000, quota_ms=q / 1000, tick_hz=hz, slice_ms=slice_us / 1000,
        flavor=flavor,
    )
    tl = simulate(TaskSpec(t / 1000), cfg, tick_phase_ms=phase_us / 1000)
    segments, completion, overruns = oracle_lagged_run_us(
        t, p, q, slice_us, hz, phase_us, flavor == "eevdf"
    )
    assert [tuple(seg) for seg in tl.segments] == segments
    assert tl.completion_us == completion
    assert list(tl.overruns_us) == overruns
    if phase_us == 0:
        (pt,) = duration_curve(
            TaskSpec(t / 1000), p / 1000, [q / p], tick_hz=hz, slice_ms=slice_us / 1000,
            flavor=flavor,
        ).points
        assert pt.completion_ms == completion / 1000
        assert pt.n_throttles == sum(state == THROTTLED for _, _, state in segments)


def test_exact_point_allocates_nothing_per_throttle():
    # A 1 us quota at P = 20 ms: a 1 s task throttles 999,999 times, which
    # an exact curve point counts without listing them.
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        (pt,) = duration_curve(TaskSpec(1000), 20, [0.00005], lagged_accounting=False).points
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert pt.quota_ms == 0.001
    assert pt.n_throttles == 999_999
    assert pt.completion_ms == closed_form_duration(TaskSpec(1000), 20, "0.001")
    assert pt.completion_ms == 19_999_980.001
    assert peak < 1 << 20


def test_full_quota_never_throttles():
    tl = simulate(TaskSpec(33.1), BandwidthControlConfig(period_ms=20, quota_ms=20))
    assert len(tl.segments) == 1
    assert tl.segments[0].state == RUNNING
    assert tl.completion_ms == 33.1
    assert tl.throttle_durations == []


def test_microsecond_ticks_recover_closed_form():
    # At a 1 MHz tick the accounting lag vanishes.
    cfg = BandwidthControlConfig(period_ms=20, quota_ms=1.45, tick_hz=1_000_000)
    tl = simulate(TaskSpec(33.1), cfg)
    assert tl.completion_ms == pytest.approx(
        closed_form_duration(TaskSpec(33.1), 20, 1.45), abs=1e-9
    )


def test_unthrottles_only_at_refill_boundaries():
    for q in (1.45, 0.5, 3.7, 10.0):
        tl = simulate(TaskSpec(77.7), BandwidthControlConfig(period_ms=20, quota_ms=q))
        for seg in tl.segments:
            if seg.state == THROTTLED:
                assert seg.end_us % 20_000 == 0


def test_overrun_bounded_by_tick_interval():
    for hz in (100, 250, 300, 1000):
        tick_us = math.ceil(1_000_000 / hz)
        cfg = BandwidthControlConfig(period_ms=20, quota_ms=1.45, tick_hz=hz)
        tl = simulate(TaskSpec(133.1), cfg)
        assert tl.overruns_us, "small quota under lag must overrun"
        assert max(tl.overruns_us) <= tick_us


def test_eevdf_overrun_never_exceeds_cfs():
    # Per-slice accounting can only tighten the debt a task builds up
    # between charges, regardless of how the timelines diverge after.
    cases = [
        dict(period_ms=20, quota_ms=1.45, tick_hz=250),
        dict(period_ms=100, quota_ms=50, tick_hz=100),
        dict(period_ms=40, quota_ms=10, tick_hz=250),
        dict(period_ms=10, quota_ms=2, tick_hz=1000),
        dict(period_ms=50, quota_ms=12.5, tick_hz=300),
        dict(period_ms=20, quota_ms=19.999, tick_hz=100),
    ]
    for kw in cases:
        cfs = simulate(TaskSpec(200), BandwidthControlConfig(**kw, flavor="cfs"))
        ee = simulate(TaskSpec(200), BandwidthControlConfig(**kw, flavor="eevdf"))
        assert max(ee.overruns_us, default=0) <= max(cfs.overruns_us, default=0)
        # Slice-level charging also caps eevdf debt at one slice.
        slice_us = 5000
        tick_us = math.ceil(1_000_000 / kw["tick_hz"])
        if ee.overruns_us:
            assert max(ee.overruns_us) <= min(slice_us, tick_us)


def test_tick_phase_shifts_first_overrun():
    base = BandwidthControlConfig(period_ms=20, quota_ms=1.45)
    shifted = simulate(TaskSpec(33.1), base, tick_phase_ms=2)
    # First tick lands at 6 ms instead of 4: longer first burst.
    assert shifted.segments[0].end_ms == 6.0
    assert shifted.overruns_ms[0] == pytest.approx(6 - 1.45)


def test_first_tick_after_matches_stepping():
    # The closed form that skips a throttled span's ticks, against the
    # stepping it replaces: from tick 1, step while the tick is not after t.
    rng = random.Random(11)
    hzs = (1, 3, 7, 250, 300, 1000, 1024, 333_334, 999_983, 1_000_000)
    cases = [(t, phase, hz) for t in range(40) for phase in (0, 1, 7, 39) for hz in hzs]
    for _ in range(3000):
        # A t up to 50 ticks past the phase keeps the stepping short.
        hz, phase = rng.choice(hzs), rng.randint(0, 10**6)
        cases.append((max(0, phase + rng.randint(-1000, 50 * 10**6 // hz)), phase, hz))
    for t, phase, hz in cases:
        index = 1
        while phase + index * 1_000_000 // hz <= t:
            index += 1
        got = _first_tick_after(t, phase, hz)
        assert max(1, got) == index, (t, phase, hz)
        # The least index whose tick falls after t, even before tick 1.
        assert phase + got * 1_000_000 // hz > t >= phase + (got - 1) * 1_000_000 // hz


def test_300hz_ticks_with_phase_exact_opening():
    # Ticks at 2 ms + floor(i * 10/3 ms): 5.333, 8.666, 12, ... The first
    # charge at 5.333 ms leaves 3.883 ms of debt, repaid by the refills at
    # 20, 40 and 60 ms; the first tick after 60 ms is at 62 ms (index 18),
    # where 2 ms of running outruns the 0.466 ms left in the pool.
    cfg = BandwidthControlConfig(period_ms=20, quota_ms=1.45, tick_hz=300)
    tl = simulate(TaskSpec(33.1), cfg, tick_phase_ms=2)
    opening = [(s.start_us, s.end_us, s.state) for s in tl.segments[:4]]
    assert opening == [
        (0, 5_333, RUNNING),
        (5_333, 60_000, THROTTLED),
        (60_000, 62_000, RUNNING),
        (62_000, 100_000, THROTTLED),
    ]
    assert tl.overruns_us[:2] == (3_883, 1_999)


def test_no_tick_before_the_first():
    # With the first tick at 30 + 3.333 ms, only eevdf's 5 ms slice marks
    # charge the task until then, even across throttles that end before
    # the phase. The throttle from 29 to 36 ms swallows the first tick;
    # the next one, at 36.666 ms, finds 0.665 ms of debt.
    cfg = BandwidthControlConfig(period_ms=2, quota_ms=1, tick_hz=300, flavor="eevdf")
    tl = simulate(TaskSpec(20), cfg, tick_phase_ms=30)
    assert [(s.start_us, s.end_us) for s in tl.segments[:6]] == [
        (0, 5_000),
        (5_000, 12_000),
        (12_000, 17_000),
        (17_000, 24_000),
        (24_000, 29_000),
        (29_000, 36_000),
    ]
    assert tl.overruns_us[:4] == (4_000, 4_999, 4_999, 665)


@given(
    t=st.integers(min_value=1, max_value=100_000),
    p=st.integers(min_value=1_000, max_value=50_000),
    q_num=st.integers(min_value=1, max_value=1000),
    phase=st.integers(min_value=1, max_value=30_000),
    flavor=st.sampled_from(["cfs", "eevdf"]),
)
@settings(max_examples=60, deadline=None)
def test_300hz_ticks_with_phase_stay_on_the_grid(t, p, q_num, phase, flavor):
    # Under cfs every charge, and so every throttle, falls on a tick
    # phase + floor(i * 1e6 / 300) us; every throttle ends at a refill.
    # Debt builds up only between charges: at most one tick interval, or
    # the phase plus one interval before the first tick.
    q = max(1, p * q_num // 1000)
    cfg = BandwidthControlConfig(
        period_ms=p / 1000, quota_ms=q / 1000, tick_hz=300, flavor=flavor
    )
    tl = simulate(TaskSpec(t / 1000), cfg, tick_phase_ms=phase / 1000)
    assert sum(tl.obtained_runtimes_us) == t
    for seg in tl.segments:
        if seg.state == THROTTLED:
            assert seg.end_us % p == 0
            if flavor == "cfs":
                index = -((phase - seg.start_us) * 300 // 1_000_000)
                assert phase + index * 1_000_000 // 300 == seg.start_us
    assert max(tl.overruns_us, default=0) <= max(3_334, phase + 3_333)


@given(
    t=st.integers(min_value=1, max_value=20_000),
    p=st.integers(min_value=1, max_value=50_000),
    slice_us=st.integers(min_value=1, max_value=20_000),
    hz=st.sampled_from([1, 250, 300, 1000, 1_000_000]),
    flavor=st.sampled_from(["cfs", "eevdf"]),
)
@settings(max_examples=60, deadline=None)
def test_quota_equal_to_period_never_throttles(t, p, slice_us, hz, flavor):
    # Continuous accounting at Q = P runs the task straight through: each
    # period's quota runs out at the refill that renews it. Lagged
    # accounting does the same once ticks are 1 us apart; at coarser
    # ticks it can bill one period's running to the next period's pool.
    cfg = BandwidthControlConfig(
        period_ms=p / 1000,
        quota_ms=p / 1000,
        tick_hz=hz,
        slice_ms=slice_us / 1000,
        flavor=flavor,
    )
    for lagged in (False, True) if hz == 1_000_000 else (False,):
        if lagged and t > 2_000:
            continue  # one event per microsecond
        tl = simulate(TaskSpec(t / 1000), cfg, lagged_accounting=lagged)
        assert tl.completion_us == t
        assert tl.throttle_durations_us == []
        assert [s.state for s in tl.segments] == [RUNNING]
    curve = duration_curve(
        TaskSpec(t / 1000), p / 1000, [1.0], tick_hz=hz, flavor=flavor,
        slice_ms=slice_us / 1000, lagged_accounting=False,
    )
    assert curve.points[0].completion_ms == t / 1000
    assert curve.points[0].n_throttles == 0


@given(
    t=st.integers(min_value=1, max_value=3_000),
    p=st.integers(min_value=1, max_value=100_000),
    flavor=st.sampled_from(["cfs", "eevdf"]),
)
@settings(max_examples=40, deadline=None)
def test_one_microsecond_quota_matches_oracle(t, p, flavor):
    # One microsecond per period: the task needs t periods and throttles
    # in each but the last, the most throttles a task of t us can have.
    cfg = BandwidthControlConfig(period_ms=p / 1000, quota_ms=0.001, flavor=flavor)
    tl = simulate(TaskSpec(t / 1000), cfg, lagged_accounting=False)
    want = oracle_completion_ms(t / 1000, p / 1000, "0.001")
    assert Fraction(tl.completion_us, 1000) == want
    assert len(tl.throttle_durations_us) == (t - 1 if p > 1 else 0)
    curve = duration_curve(
        TaskSpec(t / 1000), p / 1000, [1 / p], flavor=flavor, lagged_accounting=False
    )
    assert curve.points[0].quota_ms == 0.001
    assert curve.points[0].completion_ms == float(want)


def test_config_validation():
    with pytest.raises(SchedulingError):
        BandwidthControlConfig(period_ms=20, quota_ms=21)
    with pytest.raises(SchedulingError):
        BandwidthControlConfig(period_ms=20, quota_ms=5, tick_hz=0)
    with pytest.raises(SchedulingError):
        BandwidthControlConfig(period_ms=20, quota_ms=5, tick_hz=2_000_000)
    with pytest.raises(SchedulingError):
        BandwidthControlConfig(period_ms=20, quota_ms=5, flavor="fifo")
    with pytest.raises(SchedulingError):
        BandwidthControlConfig(period_ms=20, quota_ms=5, slice_ms=0)
    with pytest.raises(SchedulingError):
        # Sub-microsecond values are rejected, not silently rounded.
        simulate(TaskSpec(10.00005), BandwidthControlConfig(period_ms=20, quota_ms=5))
    with pytest.raises(SchedulingError):
        # Past the 200 digits of money.CONTEXT too.
        simulate(TaskSpec("10." + "0" * 250 + "1"), BandwidthControlConfig(20, 5))


# --------------------------------------------------------------------- sweeps


def test_fraction_grid_shape():
    grid = fraction_grid(200)
    assert len(grid) == 200
    assert grid[0] == 0.005
    assert grid[-1] == 1.0
    assert all(b > a for a, b in zip(grid, grid[1:]))
    with pytest.raises(SchedulingError):
        fraction_grid(1)
    with pytest.raises(SchedulingError):
        fraction_grid(10, lo=0.0)


@pytest.mark.parametrize("lo", [0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.9])
def test_fraction_grid_ends_at_exactly_one(lo):
    # lo + (n - 1) * step lands on either side of 1 for some grids, for
    # example 1.0000000000000002 at n = 8, lo = 0.1, which quota_grid rejects.
    for n in range(2, 300):
        grid = fraction_grid(n, lo=lo)
        step = (1.0 - lo) / (n - 1)
        assert grid[:-1] == [lo + i * step for i in range(n - 1)], n
        assert grid[-1] == 1.0, n
        assert all(b > a for a, b in zip(grid, grid[1:])), n
    assert quota_grid(20, fraction_grid(8, lo=0.1))[-1] == 20_000


def test_duration_curve_full_fraction_is_ideal():
    curve = duration_curve(TaskSpec(33.1), 20, [0.5, 1.0], lagged_accounting=False)
    last = curve.points[-1]
    assert last.completion_ms == 33.1
    assert last.relative_deviation == 0.0
    assert last.n_throttles == 0


def test_duration_curve_monotone_and_bounded_without_lag():
    grid = fraction_grid(200)
    for p in (80, 40, 20, 10, 5):
        curve = duration_curve(TaskSpec(33.1), p, grid, lagged_accounting=False)
        comps = [pt.completion_ms for pt in curve.points]
        assert all(b <= a + 1e-9 for a, b in zip(comps, comps[1:]))
        for pt in curve.points:
            assert pt.completion_ms <= pt.ideal_ms + 1e-9
            assert pt.completion_ms >= 33.1 - 1e-9


@given(
    t=st.integers(min_value=1, max_value=100_000).map(lambda n: n / 1000),
    p=st.sampled_from([5, 7, 10, 20]),
    n=st.integers(min_value=2, max_value=12),
    lo=st.floats(min_value=0.01, max_value=0.9),
)
@settings(max_examples=25, deadline=None)
def test_exact_curve_bounded_by_ideal_on_any_grid(t, p, n, lo):
    # The ideal is taken at the granted quota, which is f * P rounded to
    # whole microseconds, so the bound holds whatever the grid.
    curve = duration_curve(TaskSpec(t), p, fraction_grid(n, lo=lo), lagged_accounting=False)
    for pt in curve.points:
        want = oracle_ideal_ms(t, p, pt.quota_ms)
        assert pt.ideal_ms == pytest.approx(float(want), rel=1e-12)
        assert pt.completion_ms <= pt.ideal_ms + 1e-9


def test_max_deviation_scales_with_period():
    # Worst-case deviation magnitude grows with the period at fixed
    # demand; sweeping halving periods must give a strictly falling max.
    grid = fraction_grid(200)
    devs = [
        duration_curve(TaskSpec(33.1), p, grid, lagged_accounting=False)
        .max_relative_deviation()
        for p in (80, 40, 20, 10, 5)
    ]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    # Peak deviation is at most P / (4T) plus grid quantization slack.
    for p, d in zip((80, 40, 20, 10, 5), devs):
        assert d <= p / (4 * 33.1) + 0.01


def test_curve_points_match_oracle_spot_checks():
    curve = duration_curve(
        TaskSpec(160), 20, [0.25, 0.5, 0.75, 1.0], lagged_accounting=False
    )
    for pt in curve.points:
        want = oracle_completion_ms(160, 20, Fraction(pt.fraction) * 20)
        assert pt.completion_ms == pytest.approx(float(want), rel=1e-12)


@given(
    t=st.integers(min_value=1, max_value=20_000),
    p=st.integers(min_value=100, max_value=100_000),
    n=st.integers(min_value=2, max_value=8),
    lo=st.floats(min_value=0.01, max_value=0.9),
    slice_us=st.integers(min_value=1, max_value=20_000),
    hz=st.sampled_from([1, 250, 300, 1000, 1_000_000]),
    flavor=st.sampled_from(["cfs", "eevdf"]),
    lagged=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_curve_points_equal_simulate_runs(t, p, n, lo, slice_us, hz, flavor, lagged):
    # duration_curve and simulate share _run and quota_delivery; every
    # point must be the run simulate() gives at the point's quota.
    if lagged and hz == 1_000_000:
        t = min(t, 2_000)  # one event per microsecond
    grid = fraction_grid(n, lo=lo)
    task = TaskSpec(t / 1000)
    curve = duration_curve(
        task, p / 1000, grid, tick_hz=hz, slice_ms=slice_us / 1000,
        flavor=flavor, lagged_accounting=lagged,
    )
    assert len(curve.points) == len(grid)
    for pt in curve.points:
        cfg = BandwidthControlConfig(
            period_ms=p / 1000,
            quota_ms=Decimal(round(pt.quota_ms * 1000)) / 1000,
            tick_hz=hz,
            slice_ms=slice_us / 1000,
            flavor=flavor,
        )
        tl = simulate(task, cfg, lagged_accounting=lagged)
        assert pt.completion_ms == tl.completion_ms
        assert pt.n_throttles == len(tl.throttle_durations_us)


@pytest.mark.parametrize("t", [1, 7.777, 33.1, 33.4, 160])
@pytest.mark.parametrize("p", [5, 10, 20, 100])
def test_exact_accounting_curve_is_the_closed_form(t, p):
    # Completion, ideal and throttle count, point for point, whatever the grid.
    task = TaskSpec(t)
    cpu_us = Fraction(str(t)) * 1000
    for grid in (fraction_grid(60), fraction_grid(7, lo=0.3), [0.25, 0.5, 1.0]):
        curve = duration_curve(task, p, grid, lagged_accounting=False)
        assert [pt.fraction for pt in curve.points] == grid
        for pt, quota_us in zip(curve.points, quota_grid(p, grid)):
            quota = Fraction(quota_us, 1000)
            assert pt.quota_ms == float(quota)
            assert pt.completion_ms == closed_form_duration(task, p, Decimal(quota_us) / 1000)
            assert pt.ideal_ms == pytest.approx(float(oracle_ideal_ms(t, p, quota)), rel=1e-15)
            throttles = 0 if quota_us == p * 1000 else math.ceil(cpu_us / quota_us) - 1
            assert pt.n_throttles == throttles


def test_duration_curve_errors_are_checked_once_per_curve():
    # The messages a per-point config and simulate() run used to raise.
    grid = fraction_grid(5)
    whole_us = "must be a whole number of microseconds, got"
    tick_range = "tick_hz must be an integer in [1, 1000000]"
    cases = [
        (TaskSpec(10.00005), {}, f"cpu_time_ms {whole_us} 10.00005 ms"),
        (TaskSpec(33.1), {"tick_hz": 0}, tick_range),
        (TaskSpec(33.1), {"tick_hz": 250.0}, tick_range),
        (TaskSpec(33.1), {"flavor": "fifo"}, "unknown flavor: 'fifo'"),
        (TaskSpec(33.1), {"slice_ms": 0}, "slice_ms must be positive"),
    ]
    for task, kwargs, message in cases:
        for lagged in (True, False):
            with pytest.raises(SchedulingError, match=re.escape(message)):
                duration_curve(task, 20, grid, lagged_accounting=lagged, **kwargs)
    # A sub-microsecond slice is read, and so rejected, only under lagged
    # accounting: continuous accounting pins the slice to the quota.
    task = TaskSpec(33.1)
    message = f"slice_ms {whole_us} '2.0005' ms"
    with pytest.raises(SchedulingError, match=re.escape(message)):
        duration_curve(task, 20, grid, slice_ms="2.0005")
    exact = duration_curve(task, 20, grid, slice_ms="2.0005", lagged_accounting=False)
    assert exact == duration_curve(task, 20, grid, lagged_accounting=False)


def test_breakpoints_land_on_quota_boundaries():
    # T=160, P=20: completion steps whenever ceil(T / (f*P)) changes,
    # i.e. as f crosses 8/k for some integer k. The detector reports the
    # right edge of a jump, so every reported grid cell (prev, f] must
    # contain at least one such boundary, and the detected set must be
    # exactly the cells whose drop clears the half-period threshold.
    grid = fraction_grid(400)
    curve = duration_curve(TaskSpec(160), 20, grid, lagged_accounting=False)
    report = quantization_breakpoints(curve, mem_per_vcpu_mb=1769)
    assert report.breakpoints
    assert report.warnings == ()
    pts = curve.points
    expected = [
        cur.fraction
        for prev, cur in zip(pts, pts[1:])
        if prev.completion_ms - cur.completion_ms > 10
    ]
    assert report.fractions == expected
    by_fraction = {cur.fraction: prev.fraction for prev, cur in zip(pts, pts[1:])}
    for bp in report.breakpoints:
        prev_f = by_fraction[bp.fraction]
        # Some integer k has prev < 8/k <= f.
        assert math.floor(8 / prev_f - 1e-9) >= math.ceil(8 / bp.fraction - 1e-9)
        assert bp.completion_drop_ms > 10
        assert bp.memory_mb == pytest.approx(bp.fraction * 1769)


def test_breakpoints_warn_on_coarse_grid():
    curve = duration_curve(TaskSpec(160), 20, [0.2, 0.6, 1.0], lagged_accounting=False)
    report = quantization_breakpoints(curve)
    assert report.warnings
    assert "3 points" in report.warnings[0]


def test_breakpoints_empty_on_flat_curve():
    # Demand below every swept quota: one period for every f.
    grid = [0.25 + i * 0.01 for i in range(76)]
    curve = duration_curve(TaskSpec(1), 20, grid, lagged_accounting=False)
    report = quantization_breakpoints(curve)
    assert report.breakpoints == ()


def test_breakpoints_require_sorted_curve():
    curve = duration_curve(TaskSpec(160), 20, [0.5, 1.0], lagged_accounting=False)
    flipped = type(curve)(
        task_cpu_ms=curve.task_cpu_ms,
        period_ms=curve.period_ms,
        points=tuple(reversed(curve.points)),
    )
    with pytest.raises(SchedulingError):
        quantization_breakpoints(flipped)
