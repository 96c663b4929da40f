"""The simulator and profiler value types: NamedTuples that keep the
behaviour of the frozen dataclasses they replaced."""

import re

import pytest

from faascost.profiler import (
    ProbeConfig,
    ProbeResult,
    ProfilerError,
    ReferenceMatch,
    ReferenceSchedParams,
    SchedulerFingerprint,
    ThrottleEvent,
)
from faascost.sched import (
    BandwidthControlConfig,
    Breakpoint,
    BreakpointReport,
    CurvePoint,
    DurationCurve,
    ScheduleTimeline,
    SchedulingError,
    Segment,
    TaskSpec,
)

_CONFIG = BandwidthControlConfig(period_ms=20, quota_ms=1.45)
_SEGMENT = Segment(0, 4000, "running")
_POINT = CurvePoint(0.5, 10.0, 66.0, 66.2, 3)
_BREAKPOINT = Breakpoint(0.5, 12.0, None)
_EVENT = ThrottleEvent(4100, 36000)

_GAPS = "event times must be nonnegative, gaps positive"
_THRESHOLD = "gap_threshold_us must be an integer >= 100"
_TICK = "tick_hz must be an integer in [1, 1000000]"

# (type, every field by position, the required fields by keyword, its repr,
#  a valid change, [(an invalid change, the error, its message), ...])
_CASES = [
    (TaskSpec, (33.1,), {"cpu_time_ms": 33.1}, "TaskSpec(cpu_time_ms=33.1)",
     {"cpu_time_ms": 10},
     [({"cpu_time_ms": 0}, SchedulingError, "cpu_time_ms must be positive"),
      ({"cpu_time_ms": "-1"}, SchedulingError, "cpu_time_ms must be positive")]),
    (BandwidthControlConfig, (20, 1.45, 250, 5.0, "cfs"), {"period_ms": 20, "quota_ms": 1.45},
     "BandwidthControlConfig(period_ms=20, quota_ms=1.45, tick_hz=250, slice_ms=5.0, "
     "flavor='cfs')",
     {"flavor": "eevdf"},
     [({"period_ms": 0}, SchedulingError, "period and quota must be positive"),
      ({"quota_ms": -1}, SchedulingError, "period and quota must be positive"),
      ({"quota_ms": 25}, SchedulingError,
       "quota above period means more than one core; not modeled"),
      ({"tick_hz": 0}, SchedulingError, _TICK),
      ({"tick_hz": 250.0}, SchedulingError, _TICK),
      ({"tick_hz": 1_000_001}, SchedulingError, _TICK),
      ({"slice_ms": 0}, SchedulingError, "slice_ms must be positive"),
      ({"flavor": "x"}, SchedulingError, "unknown flavor: 'x'")]),
    (Segment, (0, 4000, "running"), {"start_us": 0, "end_us": 4000, "state": "running"},
     "Segment(start_us=0, end_us=4000, state='running')", {"state": "throttled"}, []),
    (ScheduleTimeline, (4.0, _CONFIG, (_SEGMENT,), 4000, ()),
     {"cpu_time_ms": 4.0, "config": _CONFIG, "segments": (_SEGMENT,), "completion_us": 4000},
     f"ScheduleTimeline(cpu_time_ms=4.0, config={_CONFIG!r}, segments=({_SEGMENT!r},), "
     "completion_us=4000, overruns_us=())",
     {"overruns_us": (450,)},
     [({"segments": (Segment(1, 4000, "running"),)}, SchedulingError,
       "segments must be contiguous from 0"),
      ({"segments": (Segment(0, 0, "running"),), "completion_us": 0}, SchedulingError,
       "segments must be contiguous from 0"),
      ({"completion_us": 5000}, SchedulingError, "segments must end at completion")]),
    (CurvePoint, (0.5, 10.0, 66.0, 66.2, 3),
     {"fraction": 0.5, "quota_ms": 10.0, "completion_ms": 66.0, "ideal_ms": 66.2,
      "n_throttles": 3},
     "CurvePoint(fraction=0.5, quota_ms=10.0, completion_ms=66.0, ideal_ms=66.2, "
     "n_throttles=3)",
     {"n_throttles": 4}, []),
    (DurationCurve, (33.1, 20.0, (_POINT,)),
     {"task_cpu_ms": 33.1, "period_ms": 20.0, "points": (_POINT,)},
     f"DurationCurve(task_cpu_ms=33.1, period_ms=20.0, points=({_POINT!r},))",
     {"points": ()}, []),
    (Breakpoint, (0.5, 12.0, None),
     {"fraction": 0.5, "completion_drop_ms": 12.0, "memory_mb": None},
     "Breakpoint(fraction=0.5, completion_drop_ms=12.0, memory_mb=None)",
     {"memory_mb": 884.5}, []),
    (BreakpointReport, ((_BREAKPOINT,), 10.0, ()),
     {"breakpoints": (_BREAKPOINT,), "threshold_ms": 10.0, "warnings": ()},
     f"BreakpointReport(breakpoints=({_BREAKPOINT!r},), threshold_ms=10.0, warnings=())",
     {"warnings": ("coarse",)}, []),
    (ThrottleEvent, (4100, 36000), {"detected_at_us": 4100, "gap_us": 36000},
     "ThrottleEvent(detected_at_us=4100, gap_us=36000)", {"gap_us": 1},
     [({"detected_at_us": -1}, ProfilerError, _GAPS),
      ({"gap_us": 0}, ProfilerError, _GAPS)]),
    (ProbeConfig, (100.0, 500), {"exec_duration_ms": 100.0},
     "ProbeConfig(exec_duration_ms=100.0, gap_threshold_us=500)", {"gap_threshold_us": 100},
     [({"exec_duration_ms": 0}, ProfilerError, "exec_duration_ms must be positive"),
      ({"exec_duration_ms": float("inf")}, ProfilerError, "exec_duration_ms must be finite"),
      ({"exec_duration_ms": float("-inf")}, ProfilerError, "exec_duration_ms must be finite"),
      ({"exec_duration_ms": float("nan")}, ProfilerError, "exec_duration_ms must be finite"),
      ({"gap_threshold_us": 50}, ProfilerError, _THRESHOLD),
      ({"gap_threshold_us": 500.0}, ProfilerError, _THRESHOLD)]),
    (ProbeResult, ((_EVENT,), 40.1, False, 0, ()),
     {"events": (_EVENT,), "total_runtime_ms": 40.1},
     f"ProbeResult(events=({_EVENT!r},), total_runtime_ms=40.1, truncated=False, "
     "loop_iterations=0, notes=())",
     {"notes": ("replay",)}, []),
    (SchedulerFingerprint,
     (1, 40.1, None, None, None, "insufficient events", (), (), (36.0,), ()),
     {"n_events": 1, "total_runtime_ms": 40.1, "period_ms_estimate": None,
      "quota_ms_estimate": None, "tick_hz_estimate": None, "confidence": "insufficient events",
      "notes": (), "intervals_ms": (), "durations_ms": (36.0,), "runtimes_ms": ()},
     "SchedulerFingerprint(n_events=1, total_runtime_ms=40.1, period_ms_estimate=None, "
     "quota_ms_estimate=None, tick_hz_estimate=None, confidence='insufficient events', "
     "notes=(), intervals_ms=(), durations_ms=(36.0,), runtimes_ms=())",
     {"tick_hz_estimate": 250}, []),
    (ReferenceSchedParams, ("aws", 20.0, 250, ""),
     {"platform": "aws", "period_ms": 20.0, "tick_hz": 250},
     "ReferenceSchedParams(platform='aws', period_ms=20.0, tick_hz=250, note='')",
     {"note": "lab"}, []),
    (ReferenceMatch, ("aws", 20.0, 250, True, None),
     {"platform": "aws", "reference_period_ms": 20.0, "reference_tick_hz": 250,
      "period_matches": True, "tick_matches": None},
     "ReferenceMatch(platform='aws', reference_period_ms=20.0, reference_tick_hz=250, "
     "period_matches=True, tick_matches=None)",
     {"tick_matches": True}, []),
]


@pytest.mark.parametrize("cls, args, kwargs, text, change, invalid", _CASES,
                         ids=[case[0].__name__ for case in _CASES])
def test_value_type(cls, args, kwargs, text, change, invalid):
    value = cls(*args)
    assert cls(**kwargs) == value and hash(cls(**kwargs)) == hash(value)
    assert type(value) is cls and repr(value) == text
    # A NamedTuple iterates its fields and equals the plain tuple of them.
    assert tuple(value) == args and value == args

    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], args[0])
    with pytest.raises(AttributeError):
        value.unknown_attribute = 1

    changed = value._replace(**change)
    assert type(changed) is cls and changed != value
    assert changed == cls(**{**kwargs, **change})
    assert cls._make(args) == value

    for bad, error, message in invalid:
        fields = {**value._asdict(), **bad}
        for make in (lambda: cls(**fields), lambda: value._replace(**bad),
                     lambda: cls._make(fields.values())):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                make()
