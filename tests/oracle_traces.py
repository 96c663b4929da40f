"""Naive reference implementations for the trace analytics.

Deliberately written the slow, obvious way: materialize per-record values
in lists, use exact decimal ceilings and math.fsum, and lean on stdlib
statistics where it applies. The streaming analytics must agree with these
within tight relative tolerances.

Every float is an exact decimal, so the billing references compute in
``Decimal`` under ``EXACT``, a context that traps ``Inexact`` and
``Rounded``: a step that would round raises instead. They add, multiply and
divide to an integer only; a division by 1000 or 1024 is a multiplication by
its exact reciprocal.
"""

import math
import random
import statistics
from decimal import (
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from fractions import Fraction

from faascost.billing.model import (
    MEMORY_GB,
    VCPU,
    CpuProportionalToMemory,
    FixedCombos,
)

EXACT = Context(
    prec=1000, traps=[Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow]
)
ZERO = Decimal(0)
PER_THOUSAND = Decimal("0.001")
PER_1024 = Decimal("0.0009765625")


def dec(x):
    """A float, int or Decimal as the exact Decimal it stands for."""
    return x if isinstance(x, Decimal) else Decimal(x)


def ceil_mult(amount, gran):
    """``amount`` rounded up to a whole number of ``gran``; call under EXACT."""
    a = dec(amount)
    g = dec(gran)
    if a <= 0:
        return ZERO
    steps, rest = divmod(a, g)
    if rest:
        steps += 1
    return steps * g


def billable_ms(raw_ms, gran_ms, cutoff_ms):
    r = max(dec(raw_ms), dec(cutoff_ms))
    if r == 0:
        return ZERO
    return ceil_mult(r, gran_ms)


def oracle_inflation_totals(records, config, mapper):
    """Exact totals, each rounded once to a float: (bill_cpu, actual_cpu,
    bill_mem, actual_mem).

    Unbilled resources come back as None. ``mapper`` is a function
    record -> (vcpus, memory_mb) in floats.
    """
    bill_cpu, actual_cpu, bill_mem, actual_mem = _inflation_decimals(
        records, config, mapper
    )

    def total(parts):
        with localcontext(EXACT):
            return float(sum(parts, ZERO))

    return (
        total(bill_cpu) if bill_cpu is not None else None,
        total(actual_cpu),
        total(bill_mem) if bill_mem is not None else None,
        total(actual_mem),
    )


def oracle_inflation_values(records, config, mapper):
    """Per-request Fractions behind :func:`oracle_inflation_totals`, as four
    lists (bill_cpu, actual_cpu, bill_mem, actual_mem); None for an
    unbilled resource."""
    return tuple(
        None if values is None else [Fraction(v) for v in values]
        for values in _inflation_decimals(records, config, mapper)
    )


def _inflation_decimals(records, config, mapper):
    """:func:`oracle_inflation_values` as exact Decimals."""
    alloc_vcpu = config.alloc_spec(VCPU)
    alloc_mem = config.alloc_spec(MEMORY_GB)
    usage_vcpu = config.usage_spec(VCPU)
    usage_mem = config.usage_spec(MEMORY_GB)
    bills_cpu = (
        alloc_vcpu is not None
        or usage_vcpu is not None
        or isinstance(config.knob_coupling, (CpuProportionalToMemory, FixedCombos))
        or config.billable_time_kind == "cpu_time_only"
    )
    bills_mem = alloc_mem is not None or usage_mem is not None

    bill_cpu, actual_cpu, bill_mem, actual_mem = [], [], [], []
    # The mapper runs outside EXACT: it may round, the oracle may not.
    granted = [(rec, mapper(rec)) for rec in records]
    with localcontext(EXACT):
        for rec, (vcpus, mem_mb) in granted:
            # Record fields are floats, which Decimal() converts exactly.
            exec_ms = Decimal(rec.exec_duration_ms)
            cpu_ms = Decimal(rec.cpu_usage_avg_vcpus) * exec_ms
            mem_gb = Decimal(rec.mem_usage_mb) * PER_1024
            if config.billable_time_kind == "cpu_time_only":
                raw = cpu_ms
            elif config.billable_time_kind == "turnaround":
                raw = exec_ms + Decimal(rec.init_duration_ms)
            else:
                raw = exec_ms
            bt_s = billable_ms(
                raw, config.time_granularity_ms, config.time_min_cutoff_ms
            ) * PER_THOUSAND

            actual_cpu.append(cpu_ms * PER_THOUSAND)
            actual_mem.append(mem_gb * exec_ms * PER_THOUSAND)

            if bills_cpu:
                if usage_vcpu is not None:
                    if usage_vcpu.billing_basis == "per_billable_second":
                        v = ceil_mult(rec.cpu_usage_avg_vcpus, usage_vcpu.granularity) * bt_s
                    else:
                        v = ceil_mult(cpu_ms, usage_vcpu.granularity) * PER_THOUSAND
                else:
                    bv = dec(vcpus)
                    if alloc_vcpu is not None:
                        bv = ceil_mult(vcpus, alloc_vcpu.granularity)
                    v = bv * bt_s
                bill_cpu.append(v)
            if bills_mem:
                if usage_mem is not None:
                    rounded = ceil_mult(mem_gb, usage_mem.granularity)
                    if usage_mem.billing_basis == "per_billable_second":
                        m = rounded * bt_s
                    else:
                        m = rounded
                else:
                    m = ceil_mult(dec(mem_mb) * PER_1024, alloc_mem.granularity) * bt_s
                bill_mem.append(m)

    return (
        bill_cpu if bills_cpu else None,
        actual_cpu,
        bill_mem if bills_mem else None,
        actual_mem,
    )


def oracle_pearson(records):
    xs, ys = [], []
    for rec in records:
        v = rec.alloc_vcpus
        m = rec.alloc_memory_mb
        if v <= 0 or m <= 0:
            continue
        xs.append(rec.cpu_usage_avg_vcpus / v)
        ys.append(rec.mem_usage_mb / m)
    return statistics.correlation(xs, ys)


class NeumaierSum:
    """Neumaier compensated summation, step by step as the analytics first
    wrote it, comparing ``abs()`` of the total and the term: their
    compensated sums, which compare the two without ``abs()``, must equal
    this one bit for bit."""

    def __init__(self):
        self._total = 0.0
        self._comp = 0.0

    def add(self, x):
        t = self._total + x
        if abs(self._total) >= abs(x):
            self._comp += (self._total - t) + x
        else:
            self._comp += (x - t) + self._total
        self._total = t

    def value(self):
        return self._total + self._comp


def oracle_scatter(records, max_scatter, seed):
    """The seeded scatter sample as a list of (cpu, mem) utilization tuples:
    reservoir sampling (Vitter's algorithm R) over the records with positive
    allocations, drawing from ``random.Random(seed)`` once per point past
    the first ``max_scatter``."""
    rng = random.Random(seed)
    reservoir = []
    n = 0
    for rec in records:
        vcpus = rec.alloc_vcpus
        mem_mb = rec.alloc_memory_mb
        if vcpus <= 0.0 or mem_mb <= 0.0:
            continue
        n += 1
        point = (rec.cpu_usage_avg_vcpus / vcpus, rec.mem_usage_mb / mem_mb)
        if len(reservoir) < max_scatter:
            reservoir.append(point)
        else:
            j = rng.randrange(n)
            if j < max_scatter:
                reservoir[j] = point
    return reservoir


def oracle_cold_diffs(records):
    """instance_id -> (init_vcpu_s, init_gb_s, sub_vcpu_s, sub_gb_s).

    Only handles traces that carry explicit instance ids.
    """
    first = {}
    execs = {}
    order = []
    for rec in records:
        key = rec.instance_id
        if key not in first:
            first[key] = rec
            execs[key] = []
            order.append(key)
        execs[key].append(rec)
    out = {}
    for key in order:
        head = first[key]
        if not head.is_cold_start:
            continue
        init_s = head.init_duration_ms / 1000.0
        sub_v = math.fsum(
            r.alloc_vcpus * r.exec_duration_ms / 1000.0 for r in execs[key]
        )
        sub_g = math.fsum(
            r.alloc_memory_mb / 1024.0 * r.exec_duration_ms / 1000.0
            for r in execs[key]
        )
        out[key] = (
            head.alloc_vcpus * init_s,
            head.alloc_memory_mb / 1024.0 * init_s,
            sub_v,
            sub_g,
        )
    return out


def oracle_roundup(records, policy, min_exec_ms=1.0):
    """(mean_time_roundup_ms, mean_mem_roundup_gb_s or None, n)."""
    times = []
    mems = []
    with localcontext(EXACT):
        for rec in records:
            if rec.exec_duration_ms < min_exec_ms:
                continue
            exec_ms = dec(rec.exec_duration_ms)
            bt = billable_ms(exec_ms, policy.time_granularity_ms, policy.time_min_cutoff_ms)
            times.append(bt - exec_ms)
            if policy.mem_granularity_gb is not None:
                gb = dec(rec.mem_usage_mb) * PER_1024
                extra = ceil_mult(gb, policy.mem_granularity_gb) - gb
                mems.append(extra * exec_ms * PER_THOUSAND)
        n = len(times)
        mean_t = float(Fraction(sum(times, ZERO)) / n)
        mean_m = (
            float(Fraction(sum(mems, ZERO)) / n)
            if policy.mem_granularity_gb is not None
            else None
        )
    return mean_t, mean_m, n
