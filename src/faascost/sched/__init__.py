"""CPU bandwidth-control models: closed form, simulator, sweeps.

Each name below is imported from its submodule on first read (PEP 562), so
``simulate --q`` loads no sweep. The closed form lives in the simulator,
beside the formula that exact accounting evaluates, so every sched command
loads it; it is a few lines of a module that each of them loads anyway.
"""

from faascost import bind_on_first_read

#: Each public name and the submodule that defines it.
_SUBMODULES = {
    "closed_form_duration": "simulator",
    "simulate": "simulator",
    "Breakpoint": "sweep",
    "BreakpointReport": "sweep",
    "CurvePoint": "sweep",
    "DurationCurve": "sweep",
    "duration_curve": "sweep",
    "fraction_grid": "sweep",
    "ideal_ms": "sweep",
    "quantization_breakpoints": "sweep",
    "quota_grid": "sweep",
    "BandwidthControlConfig": "types",
    "ScheduleTimeline": "types",
    "SchedulingError": "types",
    "Segment": "types",
    "TaskSpec": "types",
}

__all__ = sorted(_SUBMODULES)

__getattr__ = bind_on_first_read(globals(), __name__, _SUBMODULES)
