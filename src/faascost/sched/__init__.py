"""CPU bandwidth-control models: closed form, simulator, sweeps."""

from faascost.sched.closed_form import closed_form_duration
from faascost.sched.simulate import simulate
from faascost.sched.sweep import (
    Breakpoint,
    BreakpointReport,
    CurvePoint,
    DurationCurve,
    contention_slowdown,
    duration_curve,
    fraction_grid,
    ideal_ms,
    quantization_breakpoints,
    quota_grid,
)
from faascost.sched.types import (
    BandwidthControlConfig,
    ScheduleTimeline,
    SchedulingError,
    Segment,
    TaskSpec,
)

__all__ = [
    "BandwidthControlConfig",
    "Breakpoint",
    "BreakpointReport",
    "CurvePoint",
    "DurationCurve",
    "ScheduleTimeline",
    "SchedulingError",
    "Segment",
    "TaskSpec",
    "closed_form_duration",
    "contention_slowdown",
    "duration_curve",
    "fraction_grid",
    "ideal_ms",
    "quantization_breakpoints",
    "quota_grid",
    "simulate",
]
