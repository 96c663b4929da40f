"""Independent oracles for quota delivery under exact accounting.

Each steps period by period granting the quota up front, in exact
rational or integer arithmetic. They deliberately avoid the divmod-based
closed form, which the simulator's exact accounting and
``closed_form_duration`` share, so the two derivations can check each
other.
"""

from fractions import Fraction


def oracle_completion_ms(cpu_ms, period_ms, quota_ms) -> Fraction:
    t = Fraction(str(cpu_ms))
    p = Fraction(str(period_ms))
    q = Fraction(str(quota_ms))
    assert 0 < q <= p and t > 0
    done = Fraction(0)
    k = 0
    while True:
        run = min(q, t - done)
        done += run
        if done == t:
            return k * p + run
        k += 1


def oracle_exact_segments_us(cpu_us: int, period_us: int, quota_us: int):
    """Exact accounting's timeline in integer us: ``(segments, completion)``.

    Each period the task runs the quota, or what is left of its demand,
    from the period's start, then is throttled until the next period. A
    throttle of no length (the quota is the whole period) is no segment,
    and the running on either side of it is one segment.
    """
    assert 0 < quota_us <= period_us and cpu_us > 0
    segments = []
    left = cpu_us
    run_start = period_start = 0
    while True:
        run = min(quota_us, left)
        left -= run
        run_end = period_start + run
        if left == 0:
            segments.append((run_start, run_end, "running"))
            return segments, run_end
        period_start += period_us
        if run_end < period_start:
            segments.append((run_start, run_end, "running"))
            segments.append((run_end, period_start, "throttled"))
            run_start = period_start


def oracle_ideal_ms(cpu_ms, period_ms, quota_ms) -> Fraction:
    "Even-rate ideal: the task runs at fraction q/p the whole time."
    t = Fraction(str(cpu_ms))
    p = Fraction(str(period_ms))
    q = Fraction(str(quota_ms))
    return t * p / q
