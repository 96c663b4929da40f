"""Closed-form wall-clock duration under quota/period bandwidth control.

A CPU-bound task demanding T of CPU time under quota Q per period P takes
floor(T/Q) full periods plus the residue, except when T divides evenly,
where the last period only runs Q:

    d = floor(T/Q) * P + (T mod Q)      if T mod Q != 0
    d = (floor(T/Q) - 1) * P + Q        otherwise

It throttles at the end of every period it runs but the last: ceil(T/Q) - 1
times, or never when Q = P.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from ..money import dec
from .types import Number, SchedulingError, TaskSpec, to_us

if TYPE_CHECKING:
    from .sweep import DurationCurve


def closed_form_duration(task: TaskSpec, period_ms: Number, quota_ms: Number) -> float:
    """Exact wall-clock completion in ms, ignoring accounting lag."""
    t = Fraction(dec(task.cpu_time_ms))
    p = Fraction(dec(period_ms))
    q = Fraction(dec(quota_ms))
    if p <= 0 or q <= 0:
        raise SchedulingError("period and quota must be positive")
    if q > p:
        raise SchedulingError(
            "quota above period means more than one core; not modeled"
        )
    full, residue = divmod(t, q)
    if residue != 0:
        return float(full * p + residue)
    return float((full - 1) * p + q)


def closed_form_curve(
    task: TaskSpec, period_ms: Number, fractions: Sequence[float]
) -> DurationCurve:
    """:func:`closed_form_duration` at each fraction's quota from
    :func:`quota_grid`: point for point the curve of
    ``duration_curve(..., lagged_accounting=False)``."""
    # Imported here, so that ``simulate --q``, which needs only the
    # duration, loads no sweep.
    from .sweep import CurvePoint, DurationCurve, ideal_ms, quota_grid

    period_us = to_us(period_ms, "period_ms")
    cpu_us = Fraction(dec(task.cpu_time_ms)) * 1000
    points = [
        CurvePoint(
            fraction=f,
            quota_ms=quota_us / 1000.0,
            completion_ms=closed_form_duration(task, period_ms, Decimal(quota_us) / 1000),
            ideal_ms=ideal_ms(task, period_us, quota_us),
            n_throttles=0 if quota_us == period_us else math.ceil(cpu_us / quota_us) - 1,
        )
        for f, quota_us in zip(fractions, quota_grid(period_ms, fractions))
    ]
    return DurationCurve(
        task_cpu_ms=float(task.cpu_time_ms),
        period_ms=float(dec(period_ms)),
        points=tuple(points),
    )
