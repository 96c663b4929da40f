"""Offline inference of bandwidth-control parameters from throttle events.

Given the (timestamp, gap) stream a probe records, derive three views:
inter-throttle intervals, throttle durations, and per-burst runtimes.
From those, estimate the control period, the quota, and the scheduler
tick frequency:

* Period: throttles end at period-boundary refills, so differences
  between consecutive inter-throttle intervals are exact period
  multiples. Duration differences carry the same structure, but only
  while bursts hold steady, so they join the evidence only then. The
  dominant 0.5 ms cluster of the differences is the estimate; a
  perfectly uniform stream falls back to the interval mode itself,
  which may be a multiple of the true period.
* Tick: throttles begin when a tick charges accumulated runtime, so
  throttle onsets must sit on a candidate tick grid. Candidates are
  tried coarsest first against the raw onset values (grid anchored at
  the stream origin); if none fits, a phase-free retry checks that the
  onset residues merely agree with each other.
* Quota: the long-run duty cycle times the period. Raw burst lengths
  overshoot the quota by up to a tick of unaccounted overrun, so the
  estimate takes the smaller of the two.

A stream can be genuinely uninformative: a cycle that throttles once
every k periods with identical bursts looks exactly periodic, and no
analyzer can see below its uniform spacing. Those cases are reported
with the matching caveat note rather than guessed at.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .events import ProfilerError, ThrottleEvent

# Ascending, so the tick search tries the coarsest grid first.
_TICK_CANDIDATES_HZ = (100, 250, 300, 1000)
_MIN_EVENTS_FOR_ESTIMATES = 20
_BIN_US = 500


class SchedulerFingerprint(NamedTuple):
    """Inferred scheduler parameters plus the evidence distributions."""

    n_events: int
    total_runtime_ms: float
    period_ms_estimate: Optional[float]
    quota_ms_estimate: Optional[float]
    tick_hz_estimate: Optional[int]
    confidence: str
    notes: Tuple[str, ...]
    intervals_ms: Tuple[float, ...]
    durations_ms: Tuple[float, ...]
    runtimes_ms: Tuple[float, ...]

    def interval_mode_ms(self, bin_ms: float = 1.0) -> Optional[float]:
        """Most common inter-throttle interval, histogram-binned."""
        hist = _histogram(self.intervals_ms, bin_ms)
        if not hist:
            return None
        best = max(hist.values())
        return min(v for v, c in hist.items() if c == best)

    def as_dict(self) -> Dict:
        return {
            "n_events": self.n_events,
            "total_runtime_ms": self.total_runtime_ms,
            "period_ms_estimate": self.period_ms_estimate,
            "quota_ms_estimate": self.quota_ms_estimate,
            "tick_hz_estimate": self.tick_hz_estimate,
            "confidence": self.confidence,
            "notes": list(self.notes),
            "interval_histogram_ms": _histogram(self.intervals_ms, 0.5),
            "duration_histogram_ms": _histogram(self.durations_ms, 0.5),
            "runtime_histogram_ms": _histogram(self.runtimes_ms, 0.5),
        }


def _median(values: Sequence[int]) -> float:
    """The middle of the sorted values, or the mean of the two middle ones
    for an even count: ``statistics.median``, without loading ``statistics``
    and, through it, ``fractions``."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _histogram(values_ms: Sequence[float], bin_ms: float) -> Dict[float, int]:
    counts = Counter(round(v / bin_ms) for v in values_ms)
    return {k * bin_ms: c for k, c in sorted(counts.items())}


def _base_bin(values_us: Sequence[int]) -> Tuple[Optional[int], bool]:
    """Base spacing of the 0.5 ms clusters, or an ambiguity flag.

    All clusters should be integer multiples of the true spacing, so the
    smallest one is the estimate: a throttle that spans k periods
    contributes the k-fold multiple, never a fraction. Bins seen only
    once are ignored when repeated ones exist (isolated values on a
    noisy host are preemptions, not structure). Returns (bin_index,
    ambiguous); ambiguous means some cluster is not a multiple of the
    smallest, i.e. no single spacing explains the histogram.
    """
    bins = Counter(round(v / _BIN_US) for v in values_us)
    bins.pop(0, None)
    if not bins:
        return None, False
    repeated = {b: c for b, c in bins.items() if c >= 2}
    use = repeated or bins
    base = min(use)
    if any(b % base != 0 for b in use):
        return None, True
    return base, False


def _on_grid(values_us: Sequence[int], hz: int, tol_us: float, anchor_us: int = 0) -> bool:
    """True when every value sits on the hz grid anchored at ``anchor_us``:
    each residue modulo the hz spacing is within ``tol_us`` of the anchor's.

    Anchored at the first value, the test is phase-free, for streams whose
    origin is unrelated to the tick grid: consistency of the residues is
    all that can be checked.
    """
    spacing = 1e6 / hz
    base = anchor_us % spacing
    for v in values_us:
        d = abs(v % spacing - base)
        if min(d, spacing - d) > tol_us:
            return False
    return True


def analyze_events(
    events: Sequence[ThrottleEvent],
    total_runtime_ms: float,
    *,
    alignment_tol_us: float = 150.0,
) -> SchedulerFingerprint:
    """Infer (period, quota, tick) from a throttle event stream.

    Pure function: identical inputs yield identical fingerprints. Fewer
    than 20 events produce distributions only, with no estimates.
    """
    if not math.isfinite(total_runtime_ms):
        raise ProfilerError("total_runtime_ms must be finite")
    if total_runtime_ms <= 0:
        raise ProfilerError("total_runtime_ms must be positive")
    if not 0 <= alignment_tol_us < math.inf:
        raise ProfilerError("alignment_tol_us must be finite and nonnegative")
    t: List[int] = []
    g: List[int] = []
    for ev in events:
        if t and ev.detected_at_us <= t[-1]:
            raise ProfilerError("event timestamps must strictly increase")
        t.append(ev.detected_at_us)
        g.append(ev.gap_us)
    n = len(t)
    if n == 0:
        return SchedulerFingerprint(
            n_events=0,
            total_runtime_ms=total_runtime_ms,
            period_ms_estimate=None,
            quota_ms_estimate=None,
            tick_hz_estimate=None,
            confidence="unthrottled or unlimited",
            notes=(),
            intervals_ms=(),
            durations_ms=(),
            runtimes_ms=(),
        )

    intervals = [t[i + 1] - t[i] for i in range(n - 1)]
    # Burst before each throttle: from the previous resume (or start) to
    # this throttle's onset, which is detected_at - gap.
    runtimes = [t[0] - g[0]] + [t[i + 1] - g[i + 1] - t[i] for i in range(n - 1)]
    runtimes = [r for r in runtimes if r > 0]

    notes: List[str] = []
    short = sum(1 for d in g if d < 2000)
    if short:
        notes.append(
            f"{short / n:.1%} of gaps are shorter than 2 ms; on shared hosts "
            "these may be preemptions rather than bandwidth throttles"
        )

    def finish(period_us, quota_us, tick_hz, confidence) -> SchedulerFingerprint:
        return SchedulerFingerprint(
            n_events=n,
            total_runtime_ms=total_runtime_ms,
            period_ms_estimate=None if period_us is None else period_us / 1000.0,
            quota_ms_estimate=None if quota_us is None else quota_us / 1000.0,
            tick_hz_estimate=tick_hz,
            confidence=confidence,
            notes=tuple(notes),
            intervals_ms=tuple(v / 1000.0 for v in intervals),
            durations_ms=tuple(v / 1000.0 for v in g),
            runtimes_ms=tuple(v / 1000.0 for v in runtimes),
        )

    if n < _MIN_EVENTS_FOR_ESTIMATES:
        notes.append(f"only {n} events; 20 needed for parameter estimates")
        return finish(None, None, None, "insufficient events")

    # Period from spacing differences; uniform streams fall back to the
    # interval mode, which cannot be distinguished from a multiple.
    diff_evidence = [abs(b - a) for a, b in zip(intervals, intervals[1:])]
    if runtimes and max(runtimes) - min(runtimes) <= 2 * alignment_tol_us:
        # Steady bursts pin the throttle onset offset, so duration
        # differences are period multiples too; varying bursts would
        # leak tick-grid spacing into them instead.
        diff_evidence += [abs(b - a) for a, b in zip(g, g[1:])]
    bin_idx, ambiguous = _base_bin(diff_evidence)
    if ambiguous:
        notes.append("competing non-harmonic spacing clusters")
        return finish(None, None, None, "ambiguous")
    if bin_idx is None:
        bin_idx, ambiguous = _base_bin(intervals)
        if bin_idx is None or ambiguous:
            notes.append("no usable spacing structure in intervals")
            return finish(None, None, None, "ambiguous")
        notes.append(
            "uniform throttle spacing; the period may be an integer "
            "fraction of the reported value"
        )
    period_us = bin_idx * _BIN_US

    # Tick grid: throttle onsets are tick-charge instants. Candidates
    # are tried coarsest-first so nested grids resolve to the simplest
    # one the data cannot refute.
    starts = [t[i] - g[i] for i in range(n)]
    tick_hz: Optional[int] = None
    for hz in _TICK_CANDIDATES_HZ:
        if _on_grid(starts, hz, alignment_tol_us):
            tick_hz = hz
            break
    if tick_hz is None:
        for hz in _TICK_CANDIDATES_HZ:
            if _on_grid(starts, hz, alignment_tol_us, anchor_us=starts[0]):
                tick_hz = hz
                notes.append(
                    "tick grid phase is unknown relative to the stream "
                    "origin; finer grids cannot be excluded"
                )
                break
    if tick_hz is None:
        notes.append("throttle onsets align with no candidate tick grid")

    total_us = total_runtime_ms * 1000.0
    duty = max(0.0, min(1.0, (total_us - sum(g)) / total_us))
    med_runtime = _median(runtimes) if runtimes else 0.0
    quota_us = min(med_runtime, period_us * duty)
    if quota_us <= 0:
        quota_us = med_runtime or None
    elif med_runtime > quota_us:
        notes.append(
            "bursts run past the quota estimate: runtime accounting lag "
            "lets the task overrun until the next tick"
        )
    return finish(period_us, quota_us, tick_hz, "ok")
