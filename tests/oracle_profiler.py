"""Independent observer for the profiler: whether an event stream carries
enough signal to pin its period and tick rate, judged from the events alone
without the fingerprinting code."""


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
