"""Bandwidth-control models: closed form, simulator, sweeps."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faascost.sched import (
    BandwidthControlConfig,
    SchedulingError,
    TaskSpec,
    closed_form_duration,
    contention_slowdown,
    duration_curve,
    fraction_grid,
    quantization_breakpoints,
    simulate,
)
from faascost.sched.types import RUNNING, THROTTLED

from oracle_sched import oracle_completion_ms, oracle_ideal_ms


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
        assert ee.max_overrun_ms <= cfs.max_overrun_ms
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


def test_contention_slowdown_examples():
    assert contention_slowdown(2, 1000) == 2000
    assert contention_slowdown(1, 1000) == 1000
    assert contention_slowdown(4, 100, cores=2) == 200
    # More cores than tasks: no slowdown, not a speedup.
    assert contention_slowdown(2, 100, cores=8) == 100
    with pytest.raises(SchedulingError):
        contention_slowdown(0, 100)
