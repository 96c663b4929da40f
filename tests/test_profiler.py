"""Throttle probe, replay, and parameter inference."""

import io
import random

import pytest

from faascost.profiler import (
    PUBLISHED_PLATFORM_SCHEDULERS,
    ProbeConfig,
    ProfilerError,
    SchedulerFingerprint,
    ThrottleEvent,
    analyze,
    events_from_csv,
    events_to_csv,
    fingerprint_report,
    probe,
    replay_probe,
)
from faascost.sched import BandwidthControlConfig, TaskSpec, simulate
from faascost.sched.types import THROTTLED


def sim(t, p, q, hz=250, **kw):
    return simulate(
        TaskSpec(t), BandwidthControlConfig(period_ms=p, quota_ms=q, tick_hz=hz, **kw)
    )


def run_replay(t, p, q, hz=250, threshold=500, step=50):
    tl = sim(t, p, q, hz)
    cfg = ProbeConfig(exec_duration_ms=t, gap_threshold_us=threshold)
    return tl, replay_probe(tl, cfg, step_us=step)


# -------------------------------------------------------------------- events


def test_event_validation():
    with pytest.raises(ProfilerError):
        ThrottleEvent(-1, 100)
    with pytest.raises(ProfilerError):
        ThrottleEvent(100, 0)
    ev = ThrottleEvent(4321, 987)
    assert ev.detected_at_ms == 4.321
    assert ev.gap_ms == 0.987


def test_csv_round_trip(tmp_path):
    events = [ThrottleEvent(4050, 2550), ThrottleEvent(40050, 36050)]
    path = str(tmp_path / "events.csv")
    events_to_csv(events, path)
    assert events_from_csv(path) == events
    # In-memory sinks and sources work the same way.
    buf = io.StringIO()
    events_to_csv(events, buf)
    assert buf.getvalue().splitlines()[0] == "detected_at_us,gap_us"
    assert events_from_csv(io.StringIO(buf.getvalue())) == events


def test_csv_rejects_malformed():
    with pytest.raises(ProfilerError):
        events_from_csv(io.StringIO("wrong,header\n1,2\n"))
    with pytest.raises(ProfilerError):
        events_from_csv(io.StringIO("detected_at_us,gap_us\n1,2,3\n"))
    with pytest.raises(ProfilerError):
        events_from_csv(io.StringIO("detected_at_us,gap_us\nfoo,2\n"))


def test_probe_config_validation():
    with pytest.raises(ProfilerError):
        ProbeConfig(exec_duration_ms=0)
    with pytest.raises(ProfilerError):
        ProbeConfig(exec_duration_ms=100, gap_threshold_us=99)
    with pytest.raises(ProfilerError):
        ProbeConfig(exec_duration_ms=100, gap_threshold_us=500.0)
    assert ProbeConfig(exec_duration_ms=100).max_events == 201


# -------------------------------------------------------------------- replay


def test_replay_reproduces_throttles_exactly():
    tl, res = run_replay(33.1, 20, 1.45)
    throttles = [(s.start_us, s.end_us) for s in tl.segments if s.state == THROTTLED]
    assert len(res.events) == len(throttles)
    for (start, end), ev in zip(throttles, res.events):
        # Detected within one step of the resume; gap overshoots the
        # throttle by the detection step on each side at most.
        assert end < ev.detected_at_us <= end + 50
        dur = end - start
        assert dur <= ev.gap_us <= dur + 100
    assert not res.truncated


def test_replay_iteration_budget():
    # One clock read per step of consumed CPU, nothing else.
    _, res = run_replay(33.1, 20, 1.45)
    assert res.loop_iterations == 33_100 // 50
    _, res = run_replay(100, 20, 20, step=25)
    assert res.loop_iterations == 100_000 // 25


def test_replay_unthrottled_timeline_yields_no_events():
    _, res = run_replay(50, 20, 20)
    assert res.events == ()
    assert res.total_runtime_ms == 50.0


def test_replay_step_validation():
    tl = sim(10, 20, 5)
    with pytest.raises(ProfilerError):
        replay_probe(tl, ProbeConfig(exec_duration_ms=10), step_us=0)
    with pytest.raises(ProfilerError):
        replay_probe(tl, ProbeConfig(exec_duration_ms=10, gap_threshold_us=100), step_us=100)


def test_replay_buffer_truncation():
    # Threshold 5 ms sizes the buffer at 3; a dozen long throttles overflow it.
    tl = sim(12, 20, 0.1, hz=1000)
    cfg = ProbeConfig(exec_duration_ms=12, gap_threshold_us=5000)
    res = replay_probe(tl, cfg, step_us=50)
    assert cfg.max_events == 3
    assert len(res.events) == 3
    assert res.truncated


def test_replay_skips_gaps_below_threshold():
    tl = sim(40, 20, 19, hz=1000)  # quota exhausts at 19 ms: 1 ms throttles
    res = replay_probe(tl, ProbeConfig(exec_duration_ms=40, gap_threshold_us=2000))
    assert res.events == ()
    res = replay_probe(tl, ProbeConfig(exec_duration_ms=40, gap_threshold_us=500))
    assert len(res.events) > 0


# -------------------------------------------------------------------- probe


def test_live_probe_runs_and_validates():
    res = probe(ProbeConfig(exec_duration_ms=20))
    assert res.total_runtime_ms >= 20
    assert not res.truncated
    last = -1
    for ev in res.events:
        assert ev.detected_at_us > last
        assert ev.gap_us >= 500
        last = ev.detected_at_us


# ------------------------------------------------------------------- analyze


def test_analyze_empty_stream():
    fp = analyze([], 1000)
    assert fp.confidence == "unthrottled or unlimited"
    assert fp.period_ms_estimate is None
    assert fp.quota_ms_estimate is None
    assert fp.tick_hz_estimate is None
    assert fp.intervals_ms == ()
    assert fp.interval_histogram() == {}
    assert fp.interval_mode_ms() is None


def test_analyze_insufficient_events():
    events = [ThrottleEvent(20_000 * (i + 1), 16_000) for i in range(5)]
    fp = analyze(events, 200)
    assert fp.confidence == "insufficient events"
    assert fp.period_ms_estimate is None
    assert len(fp.durations_ms) == 5
    assert len(fp.intervals_ms) == 4
    assert any("only 5 events" in n for n in fp.notes)


def test_analyze_rejects_nonincreasing_timestamps():
    events = [ThrottleEvent(100, 50), ThrottleEvent(100, 50)]
    with pytest.raises(ProfilerError):
        analyze(events, 10)
    with pytest.raises(ProfilerError):
        analyze([ThrottleEvent(200, 50), ThrottleEvent(100, 50)], 10)


def test_analyze_is_pure():
    _, res = run_replay(500, 20, 1.45)
    a = analyze(res.events, res.total_runtime_ms)
    b = analyze(list(res.events), res.total_runtime_ms)
    assert a == b


def test_known_configs_recovered():
    cases = [
        (500, 20, 1.45, 250),
        (1000, 50, 5.0, 300),
        (3000, 100, 37.7, 1000),
        (400, 5, 1.3, 1000),
    ]
    for t, p, q, hz in cases:
        _, res = run_replay(t, p, q, hz=hz)
        fp = analyze(res.events, res.total_runtime_ms)
        assert fp.confidence == "ok"
        assert fp.period_ms_estimate == p
        assert fp.tick_hz_estimate == hz
        assert abs(fp.quota_ms_estimate - q) <= 1000 / hz


def test_pathology_fingerprint_details():
    _, res = run_replay(500, 20, 1.45)
    fp = analyze(res.events, res.total_runtime_ms)
    # Bursts are tick-bounded at 4 ms, so the quota estimate must come
    # from the duty cycle, flagged as an overrun regime.
    assert 1.3 <= fp.quota_ms_estimate <= 1.6
    assert any("overrun" in n for n in fp.notes)
    assert fp.runtime_histogram(1.0).get(4.0, 0) > 100
    # Steady state throttles span three periods here.
    assert fp.interval_mode_ms() == 60.0


def test_uniform_stream_reports_caveat():
    # One throttle every two periods with identical bursts: the stream
    # is exactly periodic at 2P and nothing finer is observable.
    _, res = run_replay(500, 10, 2.0, hz=250)
    fp = analyze(res.events, res.total_runtime_ms)
    assert fp.period_ms_estimate == 20.0
    assert any("integer fraction" in n for n in fp.notes)


def test_ambiguous_spacing():
    # Interval differences alternating 3 and 5 ms: non-harmonic clusters.
    t, events = 0, []
    for i in range(30):
        t += (10_000, 13_000, 10_000, 15_000)[i % 4]
        events.append(ThrottleEvent(t, 1_000))
    fp = analyze(events, 500)
    assert fp.confidence == "ambiguous"
    assert fp.period_ms_estimate is None
    assert fp.quota_ms_estimate is None


def test_tick_grid_found_without_its_phase():
    # Ticks offset 1.3 ms from the stream's origin align with no phase-locked
    # grid; the onsets still share one residue modulo the 4 ms spacing.
    tl = simulate(TaskSpec(200), BandwidthControlConfig(period_ms=20, quota_ms=1.45),
                  tick_phase_ms="1.3")
    res = replay_probe(tl, ProbeConfig(exec_duration_ms=200))
    fp = analyze(res.events, res.total_runtime_ms)
    assert fp.tick_hz_estimate == 250
    assert any("tick grid phase is unknown" in n for n in fp.notes)


def test_short_gap_noise_note():
    _, res = run_replay(400, 20, 19, hz=1000, threshold=500)  # 1 ms throttles
    fp = analyze(res.events, res.total_runtime_ms)
    assert any("shorter than 2 ms" in n for n in fp.notes)


def test_round_trip_random_configs():
    # Identifiable configs: the stream must carry direct period evidence
    # and refute every coarser tick grid; see the acceptance suite for
    # the full 50-config sweep.
    rng = random.Random(3)
    checked = 0
    while checked < 12:
        p = rng.choice([5, 10, 20, 50, 100])
        q_us = max(1, round(rng.uniform(0.05, 0.9) * p * 1000))
        hz = rng.choice([100, 250, 300, 1000])
        t = max(400.0, 30 * p)
        tl = sim(t, p, f"{q_us // 1000}.{q_us % 1000:03d}", hz)
        res = replay_probe(tl, ProbeConfig(exec_duration_ms=t))
        if not stream_identifies(res.events, p, hz):
            continue
        checked += 1
        fp = analyze(res.events, res.total_runtime_ms)
        assert fp.period_ms_estimate == float(p)
        assert fp.tick_hz_estimate == hz
        assert abs(fp.quota_ms_estimate - q_us / 1000) <= 1000 / hz


def stream_identifies(events, p_ms, hz, tol=150.0):
    """True when the event stream contains enough signal to pin (P, HZ).

    Purely observational: direct period evidence means some consecutive
    interval difference equals one period; tick evidence means the
    throttle onsets refute every coarser candidate grid. Streams without
    these (uniform cycles, onsets stuck on coarse multiples) are
    physically indistinguishable from other parameter sets.
    """
    if len(events) < 20:
        return False
    t = [e.detected_at_us for e in events]
    g = [e.gap_us for e in events]
    intervals = [b - a for a, b in zip(t, t[1:])]
    diffs = {round(abs(b - a) / 500) for a, b in zip(intervals, intervals[1:])}
    if round(p_ms * 2) not in diffs:
        return False
    starts = [ti - gi for ti, gi in zip(t, g)]
    for cand in (100, 250, 300, 1000):
        if cand >= hz:
            break
        spacing = 1e6 / cand
        if all(min(v % spacing, spacing - v % spacing) <= tol for v in starts):
            return False
    return True


# ------------------------------------------------------------------- report


def fp_with(period, tick):
    return SchedulerFingerprint(
        n_events=50,
        total_runtime_ms=1000.0,
        period_ms_estimate=period,
        quota_ms_estimate=1.0,
        tick_hz_estimate=tick,
        confidence="ok",
        notes=(),
        intervals_ms=(20.0,),
        durations_ms=(16.0,),
        runtimes_ms=(4.0,),
    )


def test_reference_report_matches():
    for period, tick, platform in [(20.0, 250, "aws"), (10.0, 250, "ibm"), (100.0, 1000, "gcp")]:
        rep = fingerprint_report(fp_with(period, tick))
        assert rep["matched_platforms"] == [platform]
    rep = fingerprint_report(fp_with(20.3, 250))
    assert "aws" in rep["matched_platforms"]  # within 0.5 ms
    rep = fingerprint_report(fp_with(21.0, 250))
    assert rep["matched_platforms"] == []


def test_reference_report_unknown_estimates():
    rep = fingerprint_report(fp_with(None, None))
    assert rep["matched_platforms"] == []
    for row in rep["rows"]:
        assert row["period_matches"] is None
        assert row["tick_matches"] is None
        assert row["matches"] is False
    assert set(PUBLISHED_PLATFORM_SCHEDULERS) == {"aws", "gcp", "ibm"}
