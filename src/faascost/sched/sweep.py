"""Parameter sweeps over vCPU fractions and breakpoint detection.

A duration curve fixes the task and period, sweeps the vCPU fraction f
(quota = f * period, rounded to whole us), and records simulated completion
against the even-rate ideal at that quota, T * period / quota. Because
quotas and demand are discrete, completion falls in steps; the breakpoint
detector locates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import List, Optional, Sequence, Tuple

from ..money import dec
from .simulate import _run
from .types import (
    US_PER_MS,
    BandwidthControlConfig,
    Number,
    SchedulingError,
    TaskSpec,
    to_us,
)


def fraction_grid(n: int, lo: float = 0.005) -> List[float]:
    """``n`` evenly spaced vCPU fractions from ``lo`` to 1, inclusive.

    The last point is exactly 1.0: ``lo + (n - 1) * step`` can round to
    either side of it.
    """
    if n < 2:
        raise SchedulingError("grid needs at least two points")
    if not 0.0 < lo < 1.0:
        raise SchedulingError("need 0 < lo < 1")
    step = (1.0 - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [1.0]


def quota_grid(period_ms: Number, fractions: Sequence[float]) -> List[int]:
    """Each fraction's quota in whole us: f * period rounded, capped at the period.

    A fraction outside (0, 1], or one whose quota rounds below 1 us,
    raises :class:`SchedulingError`.
    """
    period_us = to_us(period_ms, "period_ms")
    quotas: List[int] = []
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise SchedulingError(f"fraction must be in (0, 1], got {f}")
        quota_us = round(f * period_us)
        if quota_us < 1:
            raise SchedulingError(
                f"fraction {f} yields a quota below 1 us at period {period_ms} ms"
            )
        quotas.append(min(quota_us, period_us))
    return quotas


def ideal_ms(task: TaskSpec, period_us: int, quota_us: int) -> float:
    """Even-rate completion: the task runs at ``quota_us / period_us`` of a
    CPU the whole time."""
    return float(task.cpu_time_ms) / (quota_us / period_us)


@dataclass(frozen=True)
class CurvePoint:
    fraction: float
    quota_ms: float
    completion_ms: float
    ideal_ms: float
    n_throttles: int

    @property
    def relative_deviation(self) -> float:
        """Signed (completion - ideal) / ideal.

        Negative means the task finished ahead of the even-rate ideal,
        which is the common case: each period's quota is delivered up
        front, so the final partial period ends early.
        """
        return (self.completion_ms - self.ideal_ms) / self.ideal_ms


@dataclass(frozen=True)
class DurationCurve:
    task_cpu_ms: float
    period_ms: float
    points: Tuple[CurvePoint, ...]

    def max_relative_deviation(self) -> float:
        """Largest deviation magnitude from the ideal duration."""
        return max(abs(p.relative_deviation) for p in self.points)

    def csv_rows(self) -> List[dict]:
        return [
            {
                "f": p.fraction,
                "quota_ms": p.quota_ms,
                "completion_ms": p.completion_ms,
                "ideal_ms": p.ideal_ms,
                "n_throttles": p.n_throttles,
            }
            for p in self.points
        ]


def duration_curve(
    task: TaskSpec,
    period_ms: Number,
    fractions: Sequence[float],
    *,
    tick_hz: int = 250,
    slice_ms: Number = 5.0,
    flavor: str = "cfs",
    lagged_accounting: bool = True,
) -> DurationCurve:
    """Completion at each fraction's quota from :func:`quota_grid`.

    Each point equals a :func:`simulate` run of the task at that quota,
    but the parameters are converted and checked once per curve, and no
    point builds a timeline.

    With lagged accounting the curve carries up to one tick interval of
    jitter per point, so completion is only approximately nonincreasing
    in f once the tick interval is comparable to the period. Disable
    lagged accounting for the exact quota-delivery curve, which is
    provably monotone.
    """
    period_us = to_us(period_ms, "period_ms")
    quotas = quota_grid(period_ms, fractions)
    # Every grid quota lies in [1 us, period], so a config at the full
    # quota checks the tick rate, slice and flavor for the whole curve.
    config = BandwidthControlConfig(
        period_ms=float(dec(period_ms)),
        quota_ms=Decimal(period_us) / 1000,
        tick_hz=tick_hz,
        slice_ms=slice_ms,
        flavor=flavor,
    )
    cpu_us = to_us(task.cpu_time_ms, "cpu_time_ms")
    slice_us = to_us(slice_ms, "slice_ms") if lagged_accounting else None
    points: List[CurvePoint] = []
    for f, quota_us in zip(fractions, quotas):
        completion_us, switches, _ = _run(
            cpu_us,
            period_us,
            quota_us,
            slice_us,
            config.tick_hz,
            0,  # tick phase
            lagged_accounting,
            config.flavor == "eevdf",
        )
        points.append(
            CurvePoint(
                fraction=f,
                quota_ms=quota_us / 1000.0,
                completion_ms=completion_us / US_PER_MS,
                ideal_ms=ideal_ms(task, period_us, quota_us),
                n_throttles=len(switches) // 2,
            )
        )
    return DurationCurve(
        task_cpu_ms=float(task.cpu_time_ms),
        period_ms=float(dec(period_ms)),
        points=tuple(points),
    )


@dataclass(frozen=True)
class Breakpoint:
    fraction: float
    completion_drop_ms: float
    memory_mb: Optional[float]


@dataclass(frozen=True)
class BreakpointReport:
    breakpoints: Tuple[Breakpoint, ...]
    threshold_ms: float
    warnings: Tuple[str, ...]

    @property
    def fractions(self) -> List[float]:
        return [b.fraction for b in self.breakpoints]

    @property
    def memory_values_mb(self) -> List[float]:
        return [b.memory_mb for b in self.breakpoints if b.memory_mb is not None]


def quantization_breakpoints(
    curve: DurationCurve, *, mem_per_vcpu_mb: Optional[float] = None
) -> BreakpointReport:
    """Fractions where completion steps down between adjacent grid points.

    A step is a drop larger than half the period. The reported fraction is
    the right edge of the jump (the first grid point in the new regime).
    With ``mem_per_vcpu_mb`` set, each breakpoint also carries the memory
    size a proportional-allocation platform would need for that fraction.
    """
    pts = curve.points
    fs = [p.fraction for p in pts]
    if fs != sorted(fs):
        raise SchedulingError("curve points must be sorted by fraction ascending")
    warnings: List[str] = []
    if len(pts) < 50:
        warnings.append(
            f"grid has only {len(pts)} points; jumps between coarse grid "
            "points may be missed or merged"
        )
    threshold = curve.period_ms / 2.0
    found: List[Breakpoint] = []
    for prev, cur in zip(pts, pts[1:]):
        drop = prev.completion_ms - cur.completion_ms
        if drop > threshold:
            mem = cur.fraction * mem_per_vcpu_mb if mem_per_vcpu_mb else None
            found.append(
                Breakpoint(
                    fraction=cur.fraction, completion_drop_ms=drop, memory_mb=mem
                )
            )
    return BreakpointReport(
        breakpoints=tuple(found), threshold_ms=threshold, warnings=tuple(warnings)
    )


def contention_slowdown(
    n_tasks: int, per_task_cpu_ms: float, cores: float = 1.0
) -> float:
    """Per-task completion under idealized processor sharing.

    n equal CPU-bound tasks on c cores each run at rate min(1, c/n), so
    each finishes at t * max(1, n/c). Real contention is worse: context
    switches and cache effects add overhead this model ignores.
    """
    if not isinstance(n_tasks, int) or n_tasks < 1:
        raise SchedulingError("n_tasks must be a positive integer")
    if per_task_cpu_ms <= 0:
        raise SchedulingError("per_task_cpu_ms must be positive")
    if cores <= 0:
        raise SchedulingError("cores must be positive")
    return per_task_cpu_ms * max(1.0, n_tasks / cores)
