"""Closed-form wall-clock duration under quota/period bandwidth control.

A CPU-bound task demanding T of CPU time under quota Q per period P takes
floor(T/Q) full periods plus the residue, except when T divides evenly,
where the last period only runs Q:

    d = floor(T/Q) * P + (T mod Q)      if T mod Q != 0
    d = (floor(T/Q) - 1) * P + Q        otherwise

The formula is :func:`~faascost.sched.simulator.quota_delivery`, the one
the simulator's exact accounting returns; here it runs on the decimal
milliseconds as given, so no value need be a whole microsecond.
"""

from __future__ import annotations

import decimal

from ..money import CONTEXT, dec
from .simulator import quota_delivery
from .types import BandwidthControlConfig, Number, TaskSpec


def closed_form_duration(task: TaskSpec, period_ms: Number, quota_ms: Number) -> float:
    """Exact wall-clock completion in ms, ignoring accounting lag. The period
    and quota are checked as a :class:`BandwidthControlConfig`'s."""
    BandwidthControlConfig(period_ms, quota_ms)
    with decimal.localcontext(CONTEXT):
        _, completion = quota_delivery(dec(task.cpu_time_ms), dec(period_ms), dec(quota_ms))
    return float(completion)
