"""Independent oracles for the simulator's two accounting modes.

The exact-accounting oracles step period by period, granting the quota up
front, in exact rational or integer arithmetic. They avoid the
divmod-based closed form, ``quota_delivery``, which ``simulate``, the
exact sweep points and ``closed_form_duration`` all evaluate, so the two
derivations check each other.

The lagged-accounting oracle steps the running task microsecond by
microsecond, and a throttled one from refill to refill. It is written
from the rules of bandwidth control (``Documentation/scheduler/
sched-bwc.rst``) and of the simulator's documented tick model, and shares
no code, event queue or closed form with the simulator's event loop.
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


def oracle_lagged_run_us(cpu_us, period_us, quota_us, slice_us, hz, phase_us, eevdf):
    """Lagged accounting's timeline in integer us: ``(segments, completion, overruns)``.

    The rules, applied at each whole microsecond t:

    - The global pool holds the quota at t = 0 and is reset to the quota
      (nothing carried over) at every period boundary k * period, k >= 1.
    - The CPU's local pool draws ``min(slice, global pool)`` from the
      global pool at t = 0, and again whenever a charge leaves it at or
      below zero. If it is still at or below zero, the task is throttled.
    - Running is charged to the local pool only at a charge: a scheduler
      tick (tick i >= 1 at ``phase + floor(i * 1e6 / hz)``), the
      completion, and, under eevdf, each instant at which a slice of
      running has gone uncharged. A charge that leaves the local pool
      below zero records that debt as an overrun.
    - A throttled task waits for refills. Each refill pays the global pool
      into the local one until the local pool holds 1 us (the kernel's
      ``distribute_cfs_runtime`` grants ``-runtime_remaining + 1``); the
      task runs again from the refill that gets it there. A throttle
      lifted at the instant it began is no segment.
    - At one instant, the completion comes first, then the tick, then the
      slice mark, then the refill.
    """
    assert 0 < quota_us <= period_us and cpu_us > 0 and slice_us > 0 and phase_us >= 0

    def tick(i):
        return phase_us + i * 1_000_000 // hz

    pool = quota_us
    local = min(slice_us, pool)
    pool -= local
    t = ran = uncharged = 0
    next_tick = 1  # index of the first tick not yet passed
    throttled_at = None
    run_start = 0
    segments, overruns = [], []
    while True:
        while tick(next_tick) < t:
            next_tick += 1  # a tick while throttled charges nothing
        if throttled_at is None:
            if ran == cpu_us:
                local -= uncharged
                if local < 0:
                    overruns.append(-local)
                segments.append((run_start, t, "running"))
                return segments, t, overruns
            if tick(next_tick) == t or (eevdf and uncharged == slice_us):
                local -= uncharged
                uncharged = 0
                if local < 0:
                    overruns.append(-local)
                if local <= 0:
                    take = min(slice_us, pool)
                    local += take
                    pool -= take
                    if local <= 0:
                        throttled_at = t
        if t > 0 and t % period_us == 0:
            pool = quota_us
            if throttled_at is not None:
                pay = min(pool, 1 - local)
                local += pay
                pool -= pay
                if local > 0:
                    if t > throttled_at:
                        segments.append((run_start, throttled_at, "running"))
                        segments.append((throttled_at, t, "throttled"))
                        run_start = t
                    throttled_at = None
        if throttled_at is None:
            ran += 1
            uncharged += 1
            t += 1
        else:
            t = (t // period_us + 1) * period_us


def oracle_ideal_ms(cpu_ms, period_ms, quota_ms) -> Fraction:
    "Even-rate ideal: the task runs at fraction q/p the whole time."
    t = Fraction(str(cpu_ms))
    p = Fraction(str(period_ms))
    q = Fraction(str(quota_ms))
    return t * p / q
