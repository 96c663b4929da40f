"""Closed-form wall-clock duration under quota/period bandwidth control.

A CPU-bound task demanding T of CPU time under quota Q per period P takes
floor(T/Q) full periods plus the residue, except when T divides evenly,
where the last period only runs Q:

    d = floor(T/Q) * P + (T mod Q)      if T mod Q != 0
    d = (floor(T/Q) - 1) * P + Q        otherwise
"""

from __future__ import annotations

from fractions import Fraction

from ..money import dec
from .types import BandwidthControlConfig, Number, TaskSpec


def closed_form_duration(task: TaskSpec, period_ms: Number, quota_ms: Number) -> float:
    """Exact wall-clock completion in ms, ignoring accounting lag. The period
    and quota are checked as a :class:`BandwidthControlConfig`'s."""
    BandwidthControlConfig(period_ms, quota_ms)
    t = Fraction(dec(task.cpu_time_ms))
    p = Fraction(dec(period_ms))
    q = Fraction(dec(quota_ms))
    full, residue = divmod(t, q)
    if residue != 0:
        return float(full * p + residue)
    return float((full - 1) * p + q)
