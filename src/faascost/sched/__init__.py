"""CPU bandwidth-control models: closed form, simulator, sweeps.

Each name below is imported from its submodule on first read (PEP 562), so
``simulate --q`` loads no sweep, and a sweep no closed form.
"""

from faascost import bind_on_first_read

#: Each public name and the submodule that defines it.
_SUBMODULES = {
    "closed_form_duration": "closed_form",
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
