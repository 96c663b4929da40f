"""Trace analytics: inflation, utilization correlation, cold starts, rounding.

All analyses stream over an iterable of InvocationRecord in one pass with
O(1) or O(instances) state. Billables come from the exact quantity stage
of the billing engine, the formula the invoice uses. Per record, the
inflation and roundup analyses work in integers: each record's durations
and usage are ceiled to whole granularity steps, read as whole millionths
(:func:`faascost.money.micros`) or else as exact decimals, and inflation
prices each distinct key of steps once in decimals. Billable sums are
exact and reported as correctly rounded floats, and billable percentiles
are exact nearest ranks up to ``TraceBilling.KEYS_CAP`` distinct keys, GK
sketch estimates past it. Actual-usage totals and the correlation and
cold-start analyses run in compensated floats.
"""

from __future__ import annotations

import bisect
import decimal
import math
import random
from array import array
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .records import InvocationRecord
from .sketch import QuantileSketch
from ..billing import engine as billing_engine, trace_billing
from ..billing.model import PlatformBillingConfig
from ..checked import checked
from ..money import CONTEXT, ceil_to, dec, micros, whole_units


def _neumaier(total: float, comp: float, x: float) -> Tuple[float, float]:
    """One step of Neumaier compensated summation: the (total, compensation)
    pair after adding ``x``. The sum is ``total + comp``."""
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


class BillableDistribution:
    """Per-request billables of one resource: exact total, count, mean and
    nearest-rank quantiles.

    Values arrive as (value, count) pairs. Quantiles are exact while each
    distinct value is counted; after :meth:`spill` they come from a GK
    sketch, within its eps in rank, and the total and mean stay exact.
    Once :meth:`close` has run, ``_values`` holds the sorted distinct
    values, or the sketch's entries.
    """

    def __init__(self) -> None:
        self.total = Decimal(0)
        self.n = 0
        self.sketch: Optional[QuantileSketch] = None
        self._counts: Dict[Decimal, int] = {}
        self._values: list = []
        self._ranks: List[int] = []

    def __len__(self) -> int:
        return self.n

    def add(self, value: Decimal, count: int) -> None:
        self.total = CONTEXT.add(self.total, CONTEXT.multiply(value, count))
        self.n += count
        counts = self._counts
        counts[value] = counts.get(value, 0) + count
        if self.sketch is not None:
            self.spill()

    def spill(self) -> None:
        """Move the counted values into the GK sketch, made on first use."""
        if self.sketch is None:
            self.sketch = QuantileSketch(SKETCH_EPS)
        for value, count in self._counts.items():
            x = float(value)
            for _ in range(count):
                self.sketch.insert(x)
        self._counts = {}

    def close(self) -> None:
        if self.sketch is not None:
            self._values = self.sketch._values
            return
        self._values = sorted(self._counts)
        self._ranks = list(accumulate(self._counts[v] for v in self._values))

    def mean(self) -> float:
        if self.n == 0:
            raise ValueError("no values")
        return float(Fraction(self.total) / self.n)

    def query(self, q: float) -> float:
        """The nearest-rank value at quantile ``q``: the smallest value with
        at least ``ceil(q * n)`` values at or below it."""
        if self.sketch is not None:
            return self.sketch.query(q)
        if self.n == 0:
            raise ValueError("no values")
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        rank = max(1, math.ceil(dec(q) * self.n))
        return float(self._values[bisect.bisect_left(self._ranks, rank)])


class InflationReport(NamedTuple):
    platform: str
    mapping: str
    n: int
    actual_vcpu_s_total: float
    actual_gb_s_total: float
    billable_vcpu_s_total: Optional[float]
    billable_gb_s_total: Optional[float]
    mean_inflation_cpu: Optional[float]
    mean_inflation_mem: Optional[float]
    vcpu_s_sketch: Optional[BillableDistribution]
    gb_s_sketch: Optional[BillableDistribution]
    flags: List[str]

    def as_dict(self) -> dict:
        def pct(dist: Optional[BillableDistribution]) -> Optional[dict]:
            if dist is None or len(dist) == 0:
                return None
            return {
                "mean": dist.mean(),
                "p50": dist.query(0.5),
                "p90": dist.query(0.9),
                "p99": dist.query(0.99),
            }

        return {
            "platform": self.platform,
            "mapping": self.mapping,
            "n": self.n,
            "actual_vcpu_s_total": self.actual_vcpu_s_total,
            "actual_gb_s_total": self.actual_gb_s_total,
            "billable_vcpu_s_total": self.billable_vcpu_s_total,
            "billable_gb_s_total": self.billable_gb_s_total,
            "mean_inflation_cpu": self.mean_inflation_cpu,
            "mean_inflation_mem": self.mean_inflation_mem,
            "billable_vcpu_s": pct(self.vcpu_s_sketch),
            "billable_gb_s": pct(self.gb_s_sketch),
            "flags": list(self.flags),
        }


#: Rank error of the GK sketches: the inflation fallback and cold start.
SKETCH_EPS = 0.005
#: Requests shorter than this are left out of the roundup analysis.
ROUNDUP_MIN_EXEC_MS = 1.0


def inflation_analysis(
    records: Iterable[InvocationRecord],
    config: PlatformBillingConfig,
    *,
    mapping: str = "normalize",
) -> InflationReport:
    """Aggregate billable-to-actual resource inflation under a platform.

    Mean inflation is the ratio of total billable to total actual
    resource-seconds, so heavy requests weigh in proportionally. Resources
    the platform does not bill are reported as None.

    Billables are what :class:`faascost.billing.trace_billing.TraceBilling` bills
    the granted (``mapping="normalize"``) or requested (``"direct"``)
    allocation for. Each record is counted under its ``TraceBilling`` key,
    and each distinct key is priced once. Per-request billables are reported
    as exact nearest-rank percentiles; past ``TraceBilling.KEYS_CAP`` distinct
    keys, as :data:`SKETCH_EPS` GK estimates.
    """
    if mapping not in ("normalize", "direct"):
        raise ValueError(f"unknown mapping: {mapping!r}")
    billing = trace_billing.TraceBilling(config, normalize=mapping == "normalize")
    cpu_dist = BillableDistribution() if billing.bills_cpu else None
    mem_dist = BillableDistribution() if billing.bills_mem else None
    # Records per billing key.
    counts: Dict[tuple, int] = {}

    def fold() -> None:
        """Price each counted key once and add its count to the totals."""
        for key, count in counts.items():
            vcpu_s, gb_s = billing.seconds(key)
            if vcpu_s is not None:
                cpu_dist.add(vcpu_s, count)
            if gb_s is not None:
                mem_dist.add(gb_s, count)
        counts.clear()

    n = 0
    cpu_total = cpu_comp = mem_total = mem_comp = 0.0
    flags: List[str] = []
    spilled = False
    key_of = billing.key
    # The ceilings of keys off the integer grid run in the wide context
    # without entering it.
    with decimal.localcontext(CONTEXT):
        for record in records:
            n += 1
            # The two actual-usage sums take _neumaier's step, inline.
            exec_ms = record.exec_duration_ms
            x = record.cpu_usage_avg_vcpus * exec_ms / 1000.0
            t = cpu_total + x
            if abs(cpu_total) >= abs(x):
                cpu_comp += (cpu_total - t) + x
            else:
                cpu_comp += (x - t) + cpu_total
            cpu_total = t
            x = record.mem_usage_mb / 1024.0 * (exec_ms / 1000.0)
            t = mem_total + x
            if abs(mem_total) >= abs(x):
                mem_comp += (mem_total - t) + x
            else:
                mem_comp += (x - t) + mem_total
            mem_total = t

            key = key_of(record)
            count = counts.get(key)
            if count is not None:
                counts[key] = count + 1
                continue
            counts[key] = 1
            if len(counts) > billing.KEYS_CAP:
                fold()
                if not spilled:
                    spilled = True
                    flags.append(
                        f"more than {billing.KEYS_CAP} distinct billing keys: billable "
                        f"percentiles are GK estimates (eps {SKETCH_EPS})"
                    )
                    for dist in (cpu_dist, mem_dist):
                        if dist is not None:
                            dist.spill()
        fold()

    if n == 0:
        raise ValueError("no records")
    for dist in (cpu_dist, mem_dist):
        if dist is not None:
            dist.close()
    actual_cpu = cpu_total + cpu_comp
    actual_mem = mem_total + mem_comp

    def ratio(bill: Optional[float], a: float, label: str) -> Optional[float]:
        if bill is None:
            return None
        # A subnormal total overflows the ratio: it counts as zero too.
        r = bill / a if a > 0.0 else math.inf
        if r == math.inf:
            flags.append(f"{label}: zero actual usage, inflation undefined")
            return None
        if r < 1.0:
            flags.append(f"{label} < 1: billables below measured usage")
        return r

    bill_cpu_total = None if cpu_dist is None else float(cpu_dist.total)
    bill_mem_total = None if mem_dist is None else float(mem_dist.total)
    infl_cpu = ratio(bill_cpu_total, actual_cpu, "mean_inflation_cpu")
    infl_mem = ratio(bill_mem_total, actual_mem, "mean_inflation_mem")

    return InflationReport(
        platform=config.name,
        mapping=mapping,
        n=n,
        actual_vcpu_s_total=actual_cpu,
        actual_gb_s_total=actual_mem,
        billable_vcpu_s_total=bill_cpu_total,
        billable_gb_s_total=bill_mem_total,
        mean_inflation_cpu=infl_cpu,
        mean_inflation_mem=infl_mem,
        vcpu_s_sketch=cpu_dist,
        gb_s_sketch=mem_dist,
        flags=flags,
    )


class CorrelationResult(NamedTuple):
    """The correlation and its scatter sample, whose i-th point is
    ``(scatter_x[i], scatter_y[i])``: CPU and memory utilization.

    ``pearson_r`` is None when the correlation is undefined, and
    ``undefined`` then says why; it is not part of :meth:`as_dict`.
    """

    pearson_r: Optional[float]
    n: int
    skipped: int
    scatter_x: array
    scatter_y: array
    seed: int
    undefined: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "pearson_r": self.pearson_r,
            "n": self.n,
            "skipped": self.skipped,
            "scatter_points": len(self.scatter_x),
            "seed": self.seed,
        }


def utilization_correlation(
    records: Iterable[InvocationRecord],
    *,
    max_scatter: int = 100_000,
    seed: int = 0,
) -> CorrelationResult:
    """Pearson correlation between CPU and memory utilization fractions.

    Utilization is usage divided by allocation per record. The correlation
    uses exact one-pass sums; a seeded reservoir (Vitter's algorithm R)
    keeps at most ``max_scatter`` points for plotting, as two arrays of
    doubles, so memory stays bounded at 16 B a point. With fewer than two
    records with positive allocations, or zero variance, the correlation is
    undefined and ``pearson_r`` is None.
    """
    n = 0
    skipped = 0
    # Compensated sums of x, y, x*x, y*y and x*y, and their compensations.
    sx = sy = sxx = syy = sxy = 0.0
    cx = cy = cxx = cyy = cxy = 0.0
    xs = array("d")
    ys = array("d")
    rng = random.Random(seed)

    for record in records:
        vcpus = record.alloc_vcpus
        mem_mb = record.alloc_memory_mb
        if vcpus <= 0.0 or mem_mb <= 0.0:
            skipped += 1
            continue
        x = record.cpu_usage_avg_vcpus / vcpus
        y = record.mem_usage_mb / mem_mb
        n += 1
        sx, cx = _neumaier(sx, cx, x)
        sy, cy = _neumaier(sy, cy, y)
        sxx, cxx = _neumaier(sxx, cxx, x * x)
        syy, cyy = _neumaier(syy, cyy, y * y)
        sxy, cxy = _neumaier(sxy, cxy, x * y)
        if len(xs) < max_scatter:
            xs.append(x)
            ys.append(y)
        else:
            j = rng.randrange(n)
            if j < max_scatter:
                xs[j] = x
                ys[j] = y

    r = undefined = None
    sx, sy, sxx, syy, sxy = sx + cx, sy + cy, sxx + cxx, syy + cyy, sxy + cxy
    var_x = n * sxx - sx ** 2
    var_y = n * syy - sy ** 2
    if n < 2:
        undefined = "fewer than two records with positive allocations"
    elif var_x <= 0.0 or var_y <= 0.0:
        undefined = "zero variance in utilization"
    else:
        # Two roots, not the root of the product: tiny variances underflow to 0.
        r = (n * sxy - sx * sy) / (math.sqrt(var_x) * math.sqrt(var_y))
    return CorrelationResult(
        pearson_r=r, n=n, skipped=skipped, scatter_x=xs, scatter_y=ys, seed=seed,
        undefined=undefined,
    )


class ColdStartDiff(NamedTuple):
    instance_key: str
    function_id: str
    init_vcpu_s: float
    init_gb_s: float
    subsequent_vcpu_s: float
    subsequent_gb_s: float


class ColdStartReport(NamedTuple):
    n_records: int
    n_instances: int
    n_cold_instances: int
    n_warm_only_instances: int
    n_zero_init: int
    fraction_nonpositive: Optional[float]
    diff_vcpu_s_sketch: QuantileSketch
    diffs: Optional[List[ColdStartDiff]]
    flags: List[str]

    def as_dict(self) -> dict:
        out = {
            "n_records": self.n_records,
            "n_instances": self.n_instances,
            "n_cold_instances": self.n_cold_instances,
            "n_warm_only_instances": self.n_warm_only_instances,
            "n_zero_init": self.n_zero_init,
            "fraction_nonpositive": self.fraction_nonpositive,
            "flags": list(self.flags),
        }
        if len(self.diff_vcpu_s_sketch) > 0:
            out["diff_vcpu_s"] = {
                "mean": self.diff_vcpu_s_sketch.mean(),
                "p50": self.diff_vcpu_s_sketch.query(0.5),
            }
        return out


class _InstanceState:
    """One instance's init billables and its two execution sums, each a
    :func:`_neumaier` (total, compensation) pair kept in its own slots."""

    __slots__ = ("function_id", "cold_first", "init_vcpu_s", "init_gb_s",
                 "vcpu_total", "vcpu_comp", "gb_total", "gb_comp")

    def __init__(self, function_id: str, cold_first: bool,
                 init_vcpu_s: float, init_gb_s: float) -> None:
        self.function_id = function_id
        self.cold_first = cold_first
        self.init_vcpu_s = init_vcpu_s
        self.init_gb_s = init_gb_s
        self.vcpu_total = self.vcpu_comp = self.gb_total = self.gb_comp = 0.0


def check_session_gap(session_gap_ms: float) -> None:
    """Reject a session gap that is not nonnegative; infinity never splits."""
    if not session_gap_ms >= 0:  # NaN too: no gap would compare above it
        raise ValueError("session_gap_ms must be nonnegative")


def cold_start_differential(
    records: Iterable[InvocationRecord],
    *,
    session_gap_ms: float = 900_000.0,
    collect: bool = False,
) -> ColdStartReport:
    """Per-instance cold-start billables versus execution billables.

    For each instance whose first observed record is a cold start, the
    initialization billables (allocation times init duration) are compared
    with the execution billables of every request the instance serves,
    including the cold request's own execution. Both sides use raw
    wall-clock allocation-seconds so the comparison is not skewed by any
    platform's rounding. Records without an instance_id fall back to
    per-function sessions split at cold starts or arrival gaps above
    ``session_gap_ms``, which must pass :func:`check_session_gap`. A
    session is keyed by its (function id, index), apart from every instance
    id; its ``instance_key`` in ``diffs`` reads ``"<function id>#s<index>"``.
    """
    check_session_gap(session_gap_ms)
    instances: Dict[object, _InstanceState] = {}
    session_last: Dict[str, float] = {}
    session_idx: Dict[str, int] = {}
    n_records = 0

    for record in records:
        n_records += 1
        if record.instance_id:
            key = record.instance_id
        else:
            fid = record.function_id
            last = session_last.get(fid)
            if (
                last is None
                or record.is_cold_start
                or record.arrival_ts_ms - last > session_gap_ms
            ):
                session_idx[fid] = session_idx.get(fid, -1) + 1
            session_last[fid] = record.arrival_ts_ms
            key = fid, session_idx[fid]

        vcpus = record.alloc_vcpus
        mem_gb = record.alloc_memory_mb / 1024.0
        state = instances.get(key)
        if state is None:
            init_s = record.init_duration_ms / 1000.0
            state = _InstanceState(
                record.function_id,
                record.is_cold_start,
                vcpus * init_s,
                mem_gb * init_s,
            )
            instances[key] = state
        exec_s = record.exec_duration_ms / 1000.0
        state.vcpu_total, state.vcpu_comp = _neumaier(
            state.vcpu_total, state.vcpu_comp, vcpus * exec_s
        )
        state.gb_total, state.gb_comp = _neumaier(
            state.gb_total, state.gb_comp, mem_gb * exec_s
        )

    if n_records == 0:
        raise ValueError("no records")

    diff_cpu_sketch = QuantileSketch(SKETCH_EPS)
    diffs: Optional[List[ColdStartDiff]] = [] if collect else None
    n_cold = 0
    n_warm_only = 0
    n_zero_init = 0
    n_nonpositive = 0

    for key, state in instances.items():
        if not state.cold_first:
            n_warm_only += 1
            continue
        n_cold += 1
        if state.init_vcpu_s == 0.0 and state.init_gb_s == 0.0:
            n_zero_init += 1
        # ColdStartDiff's differences, without the object unless it is kept.
        subsequent_vcpu_s = state.vcpu_total + state.vcpu_comp
        subsequent_gb_s = state.gb_total + state.gb_comp
        diff_vcpu_s = subsequent_vcpu_s - state.init_vcpu_s
        diff_cpu_sketch.insert(diff_vcpu_s)
        if diff_vcpu_s <= 0.0 and subsequent_gb_s - state.init_gb_s <= 0.0:
            n_nonpositive += 1
        if diffs is not None:
            if isinstance(key, tuple):
                key = f"{key[0]}#s{key[1]}"
            diffs.append(ColdStartDiff(key, state.function_id, state.init_vcpu_s,
                                       state.init_gb_s, subsequent_vcpu_s, subsequent_gb_s))

    flags: List[str] = []
    if n_cold == 0:
        flags.append("no cold-start instances observed")
        fraction = None
    else:
        fraction = n_nonpositive / n_cold
    if n_zero_init:
        flags.append(f"{n_zero_init} cold instances report zero init duration")

    return ColdStartReport(
        n_records=n_records,
        n_instances=len(instances),
        n_cold_instances=n_cold,
        n_warm_only_instances=n_warm_only,
        n_zero_init=n_zero_init,
        fraction_nonpositive=fraction,
        diff_vcpu_s_sketch=diff_cpu_sketch,
        diffs=diffs,
        flags=flags,
    )


@checked
class RoundingPolicy(NamedTuple):
    """A (time granularity, cutoff, memory granularity) rounding rule, in
    exact decimals (numbers convert through :func:`faascost.money.dec`)."""

    name: str
    time_granularity_ms: Decimal
    time_min_cutoff_ms: Decimal = Decimal(0)
    mem_granularity_gb: Optional[Decimal] = None

    def _check(self):
        name, *amounts = self
        value = tuple.__new__(type(self), (name, *(None if a is None else dec(a) for a in amounts)))
        if value.time_granularity_ms <= 0:
            raise ValueError("time granularity must be positive")
        if value.time_min_cutoff_ms < 0:
            raise ValueError("cutoff must be nonnegative")
        if value.mem_granularity_gb is not None and value.mem_granularity_gb <= 0:
            raise ValueError("memory granularity must be positive")
        return value


class RoundingUpStats(NamedTuple):
    policy: RoundingPolicy
    n: int
    n_skipped_short: int
    mean_time_roundup_ms: float
    mean_mem_roundup_gb_s: Optional[float]

    def as_dict(self) -> dict:
        return {
            "policy": self.policy.name,
            "n": self.n,
            "n_skipped_short": self.n_skipped_short,
            "mean_time_roundup_ms": self.mean_time_roundup_ms,
            "mean_mem_roundup_gb_s": self.mean_mem_roundup_gb_s,
        }


def rounding_up_stats(
    records: Iterable[InvocationRecord],
    policies: Sequence[RoundingPolicy],
) -> List[RoundingUpStats]:
    """Mean rounded-up time and memory per policy, one pass over records.

    Requests shorter than :data:`ROUNDUP_MIN_EXEC_MS` are excluded
    (sub-granularity noise dominates them). Time roundup is billable minus
    raw execution time (:func:`faascost.billing.engine.rounded_time`).
    Memory roundup isolates the size-granularity effect on consumed memory,
    weighted by raw execution seconds, so it is independent of the time
    rounding reported next to it. Sums are exact, in integer 10^-6 units
    where the values allow; means are correctly rounded floats.
    """
    if not policies:
        raise ValueError("no policies given")
    # Each policy's time grid in 10^-6 ms, and each memory granularity's in
    # 10^-6 MB; None sends every record down the Decimal path for it.
    time_grids = [
        trace_billing.whole_time_grid(pol.time_granularity_ms, pol.time_min_cutoff_ms, 10**6)
        for pol in policies
    ]
    mem_grids = {
        gran: whole_units(gran * 1024, 10**6)
        for gran in {pol.mem_granularity_gb for pol in policies} - {None}
    }
    # Exact sums: whole 10^-6 ms (time) and 10^-12 MB-ms (memory) in ints,
    # plus Decimals for what takes the Decimal path; memory is shared by the
    # policies with its granularity.
    time_units = [0] * len(policies)
    time_sums = [Decimal(0)] * len(policies)
    mem_units = dict.fromkeys(mem_grids, 0)
    mem_sums = dict.fromkeys(mem_grids, Decimal(0))
    n = 0
    n_short = 0

    with decimal.localcontext(CONTEXT):
        for record in records:
            if record.exec_duration_ms < ROUNDUP_MIN_EXEC_MS:
                n_short += 1
                continue
            n += 1
            exec_micros = micros(record.exec_duration_ms)
            exec_ms = None
            for i, grid in enumerate(time_grids):
                if grid is not None and exec_micros is not None:
                    granularity, cutoff = grid
                    steps = trace_billing.rounded_steps(exec_micros, granularity, cutoff)
                    time_units[i] += steps * granularity - exec_micros
                    continue
                if exec_ms is None:
                    exec_ms = dec(record.exec_duration_ms)
                pol = policies[i]
                billable = billing_engine.rounded_time(
                    exec_ms, pol.time_granularity_ms, pol.time_min_cutoff_ms
                )
                time_sums[i] += billable - exec_ms
            if not mem_grids:
                continue
            mem_micros = micros(record.mem_usage_mb)
            mem_gb = None
            for gran, grid in mem_grids.items():
                if grid is not None and exec_micros is not None and mem_micros is not None:
                    steps = trace_billing.rounded_steps(mem_micros, grid, 0)
                    mem_units[gran] += (steps * grid - mem_micros) * exec_micros
                    continue
                if mem_gb is None:
                    exec_ms = dec(record.exec_duration_ms)
                    mem_gb = dec(record.mem_usage_mb) / 1024
                mem_sums[gran] += (ceil_to(mem_gb, gran) - mem_gb) * exec_ms

    if n == 0:
        raise ValueError("no records at or above the execution-time floor")

    def mean_mem(gran: Decimal) -> float:
        gb_ms = Fraction(mem_sums[gran]) + Fraction(mem_units[gran], 1024 * 10**12)
        return float(gb_ms / (1000 * n))

    return [
        RoundingUpStats(
            policy=pol,
            n=n,
            n_skipped_short=n_short,
            mean_time_roundup_ms=float(
                (Fraction(time_sums[i]) + Fraction(time_units[i], 10**6)) / n
            ),
            mean_mem_roundup_gb_s=(
                mean_mem(pol.mem_granularity_gb)
                if pol.mem_granularity_gb is not None
                else None
            ),
        )
        for i, pol in enumerate(policies)
    ]

