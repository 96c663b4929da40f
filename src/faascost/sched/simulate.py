"""Discrete-event simulator for CPU bandwidth control on one core.

Models the quota/period mechanism the way the kernel runs it: a global
pool refilled to the quota once per period (no accumulation), per-CPU
local slices acquired on demand, and runtime accounting that lags actual
consumption until the next scheduler tick. The lag lets a task overrun its
quota into debt, which later refills must repay before it can run again;
that reproduces the long, uneven throttle intervals seen under small
quotas.

All times are integer microseconds. Events at the same instant resolve in
a fixed order: completion, tick, slice mark, refill. Only running time is
stepped event by event: a throttled span costs O(1) however many refills
and ticks it covers, because the refill that lifts it and the first tick
after it are both closed-form.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .types import (
    RUNNING,
    THROTTLED,
    BandwidthControlConfig,
    Number,
    ScheduleTimeline,
    Segment,
    SchedulingError,
    TaskSpec,
    to_us,
)

_DONE, _TICK, _MARK, _REFILL = 0, 1, 2, 3
_US = 1_000_000


def _first_tick_after(t: int, phase: int, hz: int) -> int:
    """The least index i with tick i strictly after ``t``.

    Tick i falls at ``phase + floor(i * 1e6 / hz)``, an integer grid with
    the exact long-run rate even when 1e6/hz is not an integer (300 Hz).
    That floor exceeds ``t - phase`` exactly when
    ``i >= (t - phase + 1) * hz / 1e6``.
    """
    return -((phase - t - 1) * hz // _US)


def _run(
    remaining: int,
    period: int,
    quota: int,
    slice_us: Optional[int],
    hz: int,
    phase: int,
    lagged_accounting: bool,
    eevdf: bool,
) -> Tuple[int, List[int], List[int]]:
    """The event loop: returns completion, switch times and overruns.

    The switch times alternate between states: the task runs from
    ``switches[0] == 0``, is throttled from ``switches[1]``, runs again
    from ``switches[2]``, and so on. A throttle lifted at the instant it
    began is not recorded, so every piece has positive length and
    ``len(switches) // 2`` counts the throttles.

    ``slice_us`` is read only under lagged accounting; continuous
    accounting pins the slice to the full quota.
    """
    if not lagged_accounting:
        slice_us = quota
    local = 0
    global_pool = quota
    tick_index = 1
    next_tick = phase + _US // hz
    next_refill = period
    last_account = 0
    switches = [0]
    overruns: List[int] = []

    # Initial acquisition: the task starts against a freshly filled pool.
    take = min(slice_us, global_pool)
    local += take
    global_pool -= take

    while True:
        completion_t = last_account + remaining
        event_t, kind = completion_t, _DONE
        if lagged_accounting:
            if next_tick < event_t or (next_tick == event_t and _TICK < kind):
                event_t, kind = next_tick, _TICK
            if eevdf:
                mark = last_account + slice_us
                if mark < event_t or (mark == event_t and _MARK < kind):
                    event_t, kind = mark, _MARK
        else:
            mark = last_account + local
            if mark < event_t or (mark == event_t and _MARK < kind):
                event_t, kind = mark, _MARK
        if next_refill < event_t or (next_refill == event_t and _REFILL < kind):
            event_t, kind = next_refill, _REFILL

        t = event_t
        if kind == _DONE:
            local -= remaining
            if local < 0:
                overruns.append(-local)
            return t, switches, overruns
        if kind == _REFILL:
            global_pool = quota
            next_refill += period
            continue
        # tick or slice mark: charge consumption since the last accounting
        consumed = t - last_account
        remaining -= consumed
        local -= consumed
        last_account = t
        if local < 0:
            overruns.append(-local)
        if kind == _TICK:
            tick_index += 1
            next_tick = phase + tick_index * _US // hz
        if local > 0:
            continue
        take = min(slice_us, global_pool)
        local += take
        global_pool -= take
        if local > 0:
            continue
        # Throttled. Each refill resets the global pool to the quota and
        # repays debt + 1 us, so the refill that lifts the throttle is
        # closed-form.
        debt = -local
        refills = debt // quota + 1
        resume = next_refill + (refills - 1) * period
        final_transfer = debt - (refills - 1) * quota + 1
        local = 1
        global_pool = quota - final_transfer
        next_refill = resume + period
        last_account = resume
        if resume > t:
            switches.append(t)
            switches.append(resume)
        if lagged_accounting:
            tick_index = max(tick_index, _first_tick_after(resume, phase, hz))
            next_tick = phase + tick_index * _US // hz


def simulate(
    task: TaskSpec,
    config: BandwidthControlConfig,
    *,
    lagged_accounting: bool = True,
    tick_phase_ms: Number = 0,
) -> ScheduleTimeline:
    """Run one CPU-bound task to completion under bandwidth control.

    With ``lagged_accounting`` (the default), runtime is charged only at
    scheduler ticks, at completion, and (eevdf flavor) after each slice of
    consumption. Disabling it charges runtime continuously with the slice
    pinned to the full quota, which makes completion match the closed form
    exactly; that mode exists as a cross-check, not as a kernel model.
    """
    remaining = to_us(task.cpu_time_ms, "cpu_time_ms")
    period = to_us(config.period_ms, "period_ms")
    quota = to_us(config.quota_ms, "quota_ms")
    slice_us = to_us(config.slice_ms, "slice_ms") if lagged_accounting else None
    phase = to_us(tick_phase_ms, "tick_phase_ms")
    if phase < 0:
        raise SchedulingError("tick_phase_ms must be >= 0")
    completion, switches, overruns = _run(
        remaining,
        period,
        quota,
        slice_us,
        config.tick_hz,
        phase,
        lagged_accounting,
        config.flavor == "eevdf",
    )
    ends = switches[1:] + [completion]
    return ScheduleTimeline(
        cpu_time_ms=float(task.cpu_time_ms),
        config=config,
        segments=tuple(
            Segment(start, end, THROTTLED if i % 2 else RUNNING)
            for i, (start, end) in enumerate(zip(switches, ends))
        ),
        completion_us=completion,
        overruns_us=tuple(overruns),
    )
