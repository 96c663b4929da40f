"""The package's value types: NamedTuples that keep the behaviour of the
dataclasses they replaced."""

import ast
import importlib
import math
import re
from array import array
from decimal import Decimal
from pathlib import Path

import pytest

import faascost
from faascost.billing.model import (
    AllocResourceSpec,
    BillingError,
    CostBreakdown,
    CpuProportionalToMemory,
    FixedCombos,
    IndependentKnobs,
    PlatformBillingConfig,
    RatioConstrained,
    ResourceAllocation,
    UsageResourceSpec,
)
from faascost.profiler import (
    ProbeConfig,
    ProbeResult,
    ProfilerError,
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
from faascost.traces import (
    ColdStartDiff,
    CorrelationResult,
    InvocationRecord,
    RoundingPolicy,
    RoundingUpStats,
    SchemaMap,
    default_schema_map,
)

_CONFIG = BandwidthControlConfig(period_ms=20, quota_ms=1.45)
_SEGMENT = Segment(0, 4000, "running")
_POINT = CurvePoint(0.5, 10.0, 66.0, 66.2, 3)
_BREAKPOINT = Breakpoint(0.5, 12.0, None)
_EVENT = ThrottleEvent(4100, 36000)

_GAPS = "event times must be nonnegative, gaps positive"
_THRESHOLD = "gap_threshold_us must be an integer >= 100"
_TICK = "tick_hz must be an integer in [1, 1000000]"

_RECORD = ("fa", "i1", 0.5, 10.25, 0.0, False, 1.0, 128.0, 0.5, 64.0)
_DURATIONS = "durations must be >= 0 and below 2**53"
_ALLOCATION = "allocation amounts must be >= 0 and below 2**53"
_USAGE = "usage amounts must be >= 0 and below 2**53"
_COLUMNS = default_schema_map().columns
_NEGATIVE = "cost components must be >= 0"
_MEMORY = AllocResourceSpec("memory_gb", Decimal("0.125"), Decimal("0.00001"))
_VCPU = UsageResourceSpec("vcpu", Decimal(1))
_PROPORTIONAL = CpuProportionalToMemory(Decimal(1769))
_POLICY = RoundingPolicy("100ms", Decimal(100))

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
    (ReferenceSchedParams, ("aws", 20.0, 250),
     {"platform": "aws", "period_ms": 20.0, "tick_hz": 250},
     "ReferenceSchedParams(platform='aws', period_ms=20.0, tick_hz=250)",
     {"tick_hz": 1000}, []),
    (InvocationRecord, _RECORD,
     dict(zip(InvocationRecord._fields, _RECORD)),
     "InvocationRecord(function_id='fa', instance_id='i1', arrival_ts_ms=0.5, "
     "exec_duration_ms=10.25, init_duration_ms=0.0, is_cold_start=False, alloc_vcpus=1.0, "
     "alloc_memory_mb=128.0, cpu_usage_avg_vcpus=0.5, mem_usage_mb=64.0)",
     {"init_duration_ms": 2.5, "is_cold_start": True},
     [({"arrival_ts_ms": math.nan}, ValueError, "arrival time must be finite"),
      ({"arrival_ts_ms": math.inf}, ValueError, "arrival time must be finite"),
      ({"exec_duration_ms": -1.0}, ValueError, _DURATIONS),
      ({"init_duration_ms": 2.0**53}, ValueError, _DURATIONS),
      ({"alloc_vcpus": -1.0}, ValueError, _ALLOCATION),
      ({"alloc_memory_mb": 2.0**53}, ValueError, _ALLOCATION),
      ({"cpu_usage_avg_vcpus": math.nan}, ValueError, _USAGE),
      ({"mem_usage_mb": 2.0**53}, ValueError, _USAGE)]),
    (SchemaMap, (_COLUMNS, "ms", "ms", "mb", ","), {"columns": _COLUMNS},
     f"SchemaMap(columns={_COLUMNS!r}, duration_unit='ms', timestamp_unit='ms', "
     "memory_unit='mb', delimiter=',')",
     {"duration_unit": "s"},
     [({"columns": {"function_id": "f"}}, ValueError,
       "schema map missing required fields: ['arrival_ts', 'exec_duration', 'alloc_vcpus', "
       "'alloc_memory_mb', 'cpu_usage_avg_vcpus', 'mem_usage']"),
      ({"columns": {**_COLUMNS, "region": "r"}}, ValueError,
       "schema map binds unknown fields: ['region']"),
      ({"memory_unit": "tb"}, ValueError, "unknown unit: 'tb'")]),
    (IndependentKnobs, (), {}, "IndependentKnobs()", None, []),
    (CpuProportionalToMemory, (Decimal(1769),), {"mem_per_vcpu_mb": Decimal(1769)},
     "CpuProportionalToMemory(mem_per_vcpu_mb=Decimal('1769'))", {"mem_per_vcpu_mb": 1024},
     [({"mem_per_vcpu_mb": 0}, BillingError, "mem_per_vcpu_mb must be > 0"),
      ({"mem_per_vcpu_mb": math.nan}, ValueError, "non-finite amount: nan")]),
    (FixedCombos, (((Decimal(1), Decimal(2048)),),), {"combos": ((Decimal(1), Decimal(2048)),)},
     "FixedCombos(combos=((Decimal('1'), Decimal('2048')),))",
     {"combos": ((1, 2048), (2, 4096))},
     [({"combos": ()}, BillingError, "fixed_combos requires a nonempty combo list"),
      ({"combos": ((2, 4096), (1, 2048))}, BillingError,
       "fixed_combos must be strictly increasing in memory"),
      ({"combos": ((-1, 2048),)}, BillingError, "combo amounts must be positive")]),
    (RatioConstrained, (Decimal("0.25"), Decimal(1), Decimal("0.05"), Decimal(64)),
     {"min_ratio": Decimal("0.25"), "max_ratio": Decimal(1), "cpu_step": Decimal("0.05"),
      "mem_step_mb": Decimal(64)},
     "RatioConstrained(min_ratio=Decimal('0.25'), max_ratio=Decimal('1'), "
     "cpu_step=Decimal('0.05'), mem_step_mb=Decimal('64'))",
     {"max_ratio": 2},
     [({"min_ratio": 2}, BillingError, "need 0 < min_ratio <= max_ratio"),
      ({"min_ratio": 0}, BillingError, "need 0 < min_ratio <= max_ratio"),
      ({"cpu_step": 0}, BillingError, "knob steps must be > 0")]),
    (AllocResourceSpec, ("memory_gb", Decimal("0.125"), Decimal("0.00001")),
     {"resource": "memory_gb", "granularity": Decimal("0.125"),
      "unit_price_usd_per_unit_second": Decimal("0.00001")},
     "AllocResourceSpec(resource='memory_gb', granularity=Decimal('0.125'), "
     "unit_price_usd_per_unit_second=Decimal('0.00001'))",
     {"unit_price_usd_per_unit_second": None},
     [({"granularity": 0}, BillingError, "granularity must be > 0"),
      ({"unit_price_usd_per_unit_second": -1}, BillingError, "unit price must be >= 0"),
      ({"resource": "gpu"}, BillingError,
       "allocation of 'gpu' is not metered: allocation is billed on vcpu and memory_gb only")]),
    (UsageResourceSpec, ("vcpu", Decimal(1), None, "absolute"),
     {"resource": "vcpu", "granularity": Decimal(1)},
     "UsageResourceSpec(resource='vcpu', granularity=Decimal('1'), "
     "unit_price_usd_per_unit=None, billing_basis='absolute')",
     {"billing_basis": "per_billable_second"},
     [({"granularity": -1}, BillingError, "granularity must be > 0"),
      ({"unit_price_usd_per_unit": -1}, BillingError, "unit price must be >= 0"),
      ({"billing_basis": "x"}, BillingError, "unknown billing basis: 'x'"),
      ({"resource": "gpu_ms"}, BillingError,
       "usage of 'gpu_ms' is not metered: usage is billed on vcpu and memory_gb only")]),
    (PlatformBillingConfig,
     ("p", "turnaround", Decimal(1), Decimal(0), (_MEMORY,), (_VCPU,), Decimal("2E-7"),
      _PROPORTIONAL, ""),
     {"name": "p", "billable_time_kind": "turnaround", "time_granularity_ms": Decimal(1),
      "time_min_cutoff_ms": Decimal(0), "alloc_resources": (_MEMORY,),
      "usage_resources": (_VCPU,), "invocation_fee_usd": Decimal("2E-7"),
      "knob_coupling": _PROPORTIONAL},
     f"PlatformBillingConfig(name='p', billable_time_kind='turnaround', "
     f"time_granularity_ms=Decimal('1'), time_min_cutoff_ms=Decimal('0'), "
     f"alloc_resources=({_MEMORY!r},), usage_resources=({_VCPU!r},), "
     f"invocation_fee_usd=Decimal('2E-7'), knob_coupling={_PROPORTIONAL!r}, notes='')",
     {"time_granularity_ms": None},
     [({"billable_time_kind": "wall"}, BillingError, "unknown billable time kind: 'wall'"),
      ({"time_granularity_ms": 0}, BillingError, "time_granularity_ms must be > 0"),
      ({"time_min_cutoff_ms": -1}, BillingError, "time_min_cutoff_ms must be >= 0"),
      ({"invocation_fee_usd": -1}, BillingError, "invocation_fee_usd must be >= 0"),
      ({"usage_resources": (_VCPU._replace(resource="memory_gb"),)}, BillingError,
       "each resource may appear in at most one spec list")]),
    (ResourceAllocation, (Decimal(1), Decimal(128)),
     {"vcpus": Decimal(1), "memory_mb": Decimal(128)},
     "ResourceAllocation(vcpus=Decimal('1'), memory_mb=Decimal('128'))",
     {"memory_mb": 256},
     [({"vcpus": -1}, BillingError, _ALLOCATION),
      ({"memory_mb": 2**53}, BillingError, _ALLOCATION),
      ({"vcpus": math.inf}, ValueError, "non-finite amount: inf")]),
    (CostBreakdown,
     (Decimal(100), {"memory_gb": (Decimal("0.125"), Decimal("2E-7"))}, {}, Decimal("2E-7")),
     {"billable_time_ms": Decimal(100), "alloc_terms": {"memory_gb": (Decimal("0.125"),
                                                                      Decimal("2E-7"))},
      "usage_terms": {}, "fee_usd": Decimal("2E-7")},
     "CostBreakdown(billable_time_ms=Decimal('100'), alloc_terms=mappingproxy({'memory_gb': "
     "(Decimal('0.125'), Decimal('2E-7'))}), usage_terms=mappingproxy({}), "
     "fee_usd=Decimal('2E-7'))",
     {"fee_usd": Decimal(0)},
     [({"fee_usd": Decimal(-1)}, BillingError, _NEGATIVE),
      ({"alloc_terms": {"memory_gb": (Decimal(1), Decimal("-1E-7"))}}, BillingError, _NEGATIVE),
      ({"usage_terms": {"vcpu": (Decimal(1), Decimal("-1E-7"))}}, BillingError, _NEGATIVE)]),
    (RoundingPolicy, ("100ms", Decimal(100), Decimal(0), None),
     {"name": "100ms", "time_granularity_ms": Decimal(100)},
     "RoundingPolicy(name='100ms', time_granularity_ms=Decimal('100'), "
     "time_min_cutoff_ms=Decimal('0'), mem_granularity_gb=None)",
     {"mem_granularity_gb": Decimal("0.125")},
     [({"time_granularity_ms": 0}, ValueError, "time granularity must be positive"),
      ({"time_min_cutoff_ms": -1}, ValueError, "cutoff must be nonnegative"),
      ({"mem_granularity_gb": 0}, ValueError, "memory granularity must be positive")]),
    (RoundingUpStats, (_POLICY, 10, 2, 0.5, None),
     {"policy": _POLICY, "n": 10, "n_skipped_short": 2, "mean_time_roundup_ms": 0.5,
      "mean_mem_roundup_gb_s": None},
     f"RoundingUpStats(policy={_POLICY!r}, n=10, n_skipped_short=2, "
     "mean_time_roundup_ms=0.5, mean_mem_roundup_gb_s=None)",
     {"n": 11}, []),
    (ColdStartDiff, ("i1", "fa", 0.25, 0.5, 1.0, 2.0),
     {"instance_key": "i1", "function_id": "fa", "init_vcpu_s": 0.25, "init_gb_s": 0.5,
      "subsequent_vcpu_s": 1.0, "subsequent_gb_s": 2.0},
     "ColdStartDiff(instance_key='i1', function_id='fa', init_vcpu_s=0.25, init_gb_s=0.5, "
     "subsequent_vcpu_s=1.0, subsequent_gb_s=2.0)",
     {"init_gb_s": 2.5}, []),
]


def _hashable(fields) -> bool:
    try:
        hash(fields)
    except TypeError:  # a mapping field: the frozen dataclass did not hash either
        return False
    return True


@pytest.mark.parametrize("cls, args, kwargs, text, change, invalid", _CASES,
                         ids=[case[0].__name__ for case in _CASES])
def test_value_type(cls, args, kwargs, text, change, invalid):
    value = cls(*args)
    assert cls(**kwargs) == value
    if _hashable(args):
        assert hash(cls(**kwargs)) == hash(value)
    assert type(value) is cls and repr(value) == text
    # A NamedTuple iterates its fields and equals the plain tuple of them.
    assert tuple(value) == args and value == args

    if cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, cls._fields[0], args[0])
    with pytest.raises(AttributeError):
        value.unknown_attribute = 1
    if change is None:  # no field to change
        return

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


def test_numbers_convert_to_decimals_on_every_construction():
    policy = RoundingPolicy("100ms", 100, 0.5, 0.125)
    for made in (policy, policy._replace(name="b"), RoundingPolicy._make(policy)):
        assert made[1:] == (Decimal(100), Decimal("0.5"), Decimal("0.125"))
        assert {type(x) for x in made[1:]} == {Decimal}
    assert policy._replace(time_min_cutoff_ms=1.5).time_min_cutoff_ms == Decimal("1.5")

    alloc = ResourceAllocation(1, "128.5")
    assert alloc == (Decimal(1), Decimal("128.5"))
    assert {type(x) for x in alloc} == {Decimal}
    assert ResourceAllocation() == (0, 0)

    config = PlatformBillingConfig("p", "execution", "0.5", 0, [_MEMORY], [], 0.0000002,
                                   IndependentKnobs())
    assert config.time_granularity_ms == Decimal("0.5")
    assert config.invocation_fee_usd == Decimal("2E-7")
    assert config.alloc_resources == (_MEMORY,) and type(config.alloc_resources) is tuple
    assert FixedCombos([(1, 2048)]).combos == ((Decimal(1), Decimal(2048)),)


def test_cost_breakdown_total_is_the_exact_sum_of_its_parts():
    terms = {"memory_gb": (Decimal(1), Decimal("1E-30")), "vcpu": (Decimal(1), Decimal(7))}
    usage = {"vcpu": (Decimal(2), Decimal("0.3"))}
    cost = CostBreakdown(Decimal(1), terms, usage, Decimal("2E-7"))
    # 31 significant digits: past the default context's 28, the sum is exact.
    assert cost.total_usd == Decimal("7.300000200000000000000000000001")
    assert cost._replace(fee_usd=Decimal(0)).total_usd == Decimal("7.300000000000000000000000000001")
    assert cost.as_dict()["total_usd"] == "7.300000200000"
    # The terms are copied into read-only mappings.
    terms["vcpu"] = (Decimal(1), Decimal(8))
    assert cost.alloc_terms["vcpu"] == (Decimal(1), Decimal(7))
    with pytest.raises(TypeError):
        cost.alloc_terms["vcpu"] = (Decimal(1), Decimal(8))


def test_reports_are_named_tuples_of_their_fields():
    corr = CorrelationResult(0.5, 3, 1, array("d", [0.1, 0.2]), array("d", [0.3, 0.4]), 7)
    assert corr.undefined is None
    assert (list(corr.scatter_x), list(corr.scatter_y)) == ([0.1, 0.2], [0.3, 0.4])
    assert corr.as_dict() == {"pearson_r": 0.5, "n": 3, "skipped": 1, "scatter_points": 2,
                              "seed": 7}
    diff = ColdStartDiff("i1", "fa", 0.25, 0.5, 1.0, 2.0)
    assert diff == ("i1", "fa", 0.25, 0.5, 1.0, 2.0)


def test_every_checking_type_is_one_checked_named_tuple():
    # A _check on a class that lacks @checked would never run.
    package = Path(faascost.__file__).resolve().parent
    classes = []  # (module name, class node, its bases as written)
    for path in sorted(package.rglob("*.py")):
        module = ".".join(("faascost", *path.relative_to(package).with_suffix("").parts))
        classes += [(module, node, {ast.unparse(base) for base in node.bases})
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ClassDef)]
    private = {node.name for _, node, bases in classes
               if node.name.startswith("_") and "NamedTuple" in bases}
    decorated = {}
    for module, node, bases in classes:
        assert not bases & private, (module, node.name)
        defines_check = any(isinstance(item, ast.FunctionDef) and item.name == "_check"
                            for item in node.body)
        is_checked = any(ast.unparse(d) == "checked" for d in node.decorator_list)
        assert is_checked == defines_check, (module, node.name)
        if is_checked:
            assert bases == {"NamedTuple"}, (module, node.name)
            decorated[node.name] = module
    assert len(decorated) == 16
    for name, module in decorated.items():
        cls = getattr(importlib.import_module(module), name)
        assert cls.__mro__ == (cls, tuple, object)
