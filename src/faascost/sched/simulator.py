"""Discrete-event simulator for CPU bandwidth control on one core.

Models the quota/period mechanism the way the kernel runs it: a global
pool refilled to the quota once per period (no accumulation), per-CPU
local slices acquired on demand, and runtime accounting that lags actual
consumption until the next scheduler tick. The lag lets a task overrun its
quota into debt, which later refills must repay before it can run again;
that reproduces the long, uneven throttle intervals seen under small
quotas.

All times are integer microseconds. Events at the same instant resolve in
a fixed order: completion, tick, eevdf slice mark, refill. Only running
time is stepped event by event: a throttled span costs O(1) however many
refills and ticks it covers, because the refill that lifts it and the
first tick after it are both closed-form.

Exact (continuous) accounting steps nothing. :func:`quota_delivery` is its
one formula, which :func:`simulate`, the exact sweep points and
:func:`closed_form_duration` all evaluate.
"""

from __future__ import annotations

import decimal
from typing import List, Tuple

from ..money import CONTEXT, dec
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


def quota_delivery(cpu, period, quota):
    """Exact accounting in closed form: ``(throttles, completion)``.

    Each period grants the whole quota at its start. A task demanding T
    runs Q in each of floor(T/Q) full periods and the residue in the
    next, except when T divides evenly, where the last period only runs Q:

        completion = floor(T/Q) * P + (T mod Q)      if T mod Q != 0
        completion = (floor(T/Q) - 1) * P + Q        otherwise

    Below the period, the task is throttled from ``k * P + Q`` to
    ``(k + 1) * P`` in each full period k. A quota equal to the period
    never throttles: each quota runs out at the refill that renews it, and
    the task runs straight through. Integer microseconds, or Decimals
    under :data:`faascost.money.CONTEXT`, keep the result exact.
    """
    full, residue = divmod(cpu, quota)
    if not residue:
        full, residue = full - 1, quota
    return (0 if quota == period else full), full * period + residue


def closed_form_duration(task: TaskSpec, period_ms: Number, quota_ms: Number) -> float:
    """Exact wall-clock completion in ms, ignoring accounting lag.

    This is :func:`quota_delivery` on the decimal milliseconds as given,
    so no value need be a whole microsecond. The period and quota are
    checked as a :class:`BandwidthControlConfig`'s.
    """
    BandwidthControlConfig(period_ms, quota_ms)
    with decimal.localcontext(CONTEXT):
        _, completion = quota_delivery(dec(task.cpu_time_ms), dec(period_ms), dec(quota_ms))
    return float(completion)


def _run(
    remaining: int,
    period: int,
    quota: int,
    slice_us: int,
    hz: int,
    phase: int,
    eevdf: bool,
) -> Tuple[int, List[int], List[int]]:
    """Lagged accounting's completion, switch times and overruns.

    The switch times alternate between states: the task runs from
    ``switches[0] == 0``, is throttled from ``switches[1]``, runs again
    from ``switches[2]``, and so on. A throttle lifted at the instant it
    began is not recorded, so every piece has positive length and
    ``len(switches) // 2`` counts the throttles.
    """
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
        # Candidates in the same-instant order: a later kind wins only
        # strictly earlier.
        event_t, kind = last_account + remaining, _DONE
        if next_tick < event_t:
            event_t, kind = next_tick, _TICK
        if eevdf and last_account + slice_us < event_t:
            event_t, kind = last_account + slice_us, _MARK
        if next_refill < event_t:
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
    consumption. Disabling it charges runtime continuously, so each period
    delivers exactly its quota: the timeline is filled from
    :func:`quota_delivery`'s throttles, and the tick, slice and flavor play
    no part. It is the ideal of quota delivery, not a kernel model.
    ``tests/oracle_sched.py`` steps both modes on its own, lagged
    accounting µs by µs and exact accounting period by period.
    """
    remaining = to_us(task.cpu_time_ms, "cpu_time_ms")
    period = to_us(config.period_ms, "period_ms")
    quota = to_us(config.quota_ms, "quota_ms")
    phase = to_us(tick_phase_ms, "tick_phase_ms")
    if phase < 0:
        raise SchedulingError("tick_phase_ms must be >= 0")
    if lagged_accounting:
        slice_us = to_us(config.slice_ms, "slice_ms")
        completion, switches, overruns = _run(
            remaining, period, quota, slice_us, config.tick_hz, phase, config.flavor == "eevdf"
        )
    else:
        throttles, completion = quota_delivery(remaining, period, quota)
        switches = [0] * (2 * throttles + 1)
        switches[1::2] = range(quota, throttles * period, period)
        switches[2::2] = range(period, (throttles + 1) * period, period)
        overruns = []
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
