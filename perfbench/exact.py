"""Exact re-derivation of the trace analytics, for the benchmark's output checks.

Every value the synthetic generator writes has at most six decimals, so each
cell is read here as an integer count of millionths and the published billing
formula is evaluated in integers and fractions. Nothing here calls the
analytics under test; only the platform YAML is read through
``faascost.billing.resolve_platform``, as the tests do.
"""

from __future__ import annotations

import csv
import gzip
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

MICRO = 10**6
# Billable time is carried in units of 1e-12 ms, fine enough for the product
# of two six-decimal cells (consumed vCPU x execution ms).
TIME_SCALE = 10**12


def micro(text: str) -> int:
    """A non-negative decimal string with at most six decimals, in millionths."""
    whole, _, frac = text.strip().partition(".")
    if len(frac) > 6 or not (whole + frac).isdigit():
        raise ValueError(f"not a six-decimal amount: {text!r}")
    return int(whole or "0") * MICRO + int(frac.ljust(6, "0") or "0")


def _int(value: Fraction) -> int:
    if value.denominator != 1:
        raise ValueError(f"{value} is not a whole number of base units")
    return value.numerator


def _ceil_div(a: np.ndarray, b: int) -> np.ndarray:
    return -((-a) // b)


def _isum(values: np.ndarray) -> int:
    """Exact sum of an int64 array (Python ints cannot overflow)."""
    return sum(values.tolist())


@dataclass
class TraceColumns:
    """The numeric trace columns in millionths of their unit."""

    exec_us: np.ndarray  # millionths of a ms
    init_us: np.ndarray
    vcpus: np.ndarray  # millionths of a vCPU
    mem_mb: np.ndarray  # millionths of a MB
    cpu: np.ndarray  # millionths of a vCPU
    mem_usage: np.ndarray  # millionths of a MB


def read_columns(path: Path) -> TraceColumns:
    opener = gzip.open if path.suffix == ".gz" else open
    names = ("exec_duration_ms", "init_duration_ms", "alloc_vcpus",
             "alloc_memory_mb", "cpu_usage_avg_vcpus", "mem_usage_mb")
    cols: List[List[int]] = [[] for _ in names]
    with opener(path, "rt", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = [header.index(name) for name in names]
        for row in reader:
            for out, i in zip(cols, idx):
                out.append(micro(row[i]))
    arrays = [np.array(c, dtype=np.int64) for c in cols]
    return TraceColumns(*arrays)


def normalized(vcpus: Fraction, mem_mb: Fraction, coupling) -> Tuple[Fraction, Fraction]:
    """The allocation the platform grants for a request, from its knob rules."""
    kind = type(coupling).__name__
    if kind == "IndependentKnobs":
        return vcpus, mem_mb
    if kind == "CpuProportionalToMemory":
        per = Fraction(coupling.mem_per_vcpu_mb)
        mem = max(mem_mb, vcpus * per)
        # vCPUs are floored to 12 decimals, as the platform notes state.
        return Fraction(math.floor(mem / per * 10**12), 10**12), mem
    if kind == "FixedCombos":
        for v, m in coupling.combos:
            if Fraction(m) >= mem_mb and Fraction(v) >= vcpus:
                return Fraction(v), Fraction(m)
        raise ValueError("allocation exceeds the platform's largest combo")
    raise NotImplementedError(f"no exact re-derivation for {kind}")


def _ceil_mult(amount: Fraction, gran: Fraction) -> Fraction:
    return math.ceil(amount / gran) * gran if amount > 0 else Fraction(0)


@dataclass
class InflationTruth:
    """Exact totals of one platform's inflation analysis, plus per-request
    billables (as floats) for the sketch rank checks."""

    actual_vcpu_s: Fraction
    actual_gb_s: Fraction
    billable_vcpu_s: Optional[Fraction]
    billable_gb_s: Optional[Fraction]
    vcpu_s_values: Optional[np.ndarray]
    gb_s_values: Optional[np.ndarray]


def inflation_truth(cols: TraceColumns, config) -> InflationTruth:
    alloc = {s.resource: s for s in config.alloc_resources}
    usage = {s.resource: s for s in config.usage_resources}
    kind = config.billable_time_kind

    # Billable time per request, in 1e-12 ms.
    if kind == "cpu_time_only":
        raw = cols.cpu * cols.exec_us
    elif kind == "turnaround":
        raw = (cols.exec_us + cols.init_us) * MICRO
    else:
        raw = cols.exec_us * MICRO
    gran = _int(Fraction(config.time_granularity_ms) * TIME_SCALE)
    cutoff = _int(Fraction(config.time_min_cutoff_ms) * TIME_SCALE)
    clamped = np.maximum(raw, cutoff)
    bt = np.where(clamped == 0, 0, _ceil_div(clamped, gran) * gran)
    bt_per_s = TIME_SCALE * 1000  # bt / bt_per_s is billable seconds

    # Requests share a handful of allocations; normalize each pair once.
    pairs, pair_idx = np.unique(np.stack([cols.vcpus, cols.mem_mb], axis=1),
                                axis=0, return_inverse=True)
    pair_idx = pair_idx.reshape(-1)
    granted = [normalized(Fraction(int(v), MICRO), Fraction(int(m), MICRO),
                          config.knob_coupling) for v, m in pairs]
    bt_sums = [_isum(bt[pair_idx == p]) for p in range(len(pairs))]
    bt_s = bt / bt_per_s

    def per_pair(amounts: List[Fraction]) -> Tuple[Fraction, np.ndarray]:
        total = sum((a * s for a, s in zip(amounts, bt_sums)), Fraction(0)) / bt_per_s
        values = np.array([float(a) for a in amounts])[pair_idx] * bt_s
        return total, values

    bills_cpu = ("vcpu" in alloc or "vcpu" in usage or kind == "cpu_time_only"
                 or type(config.knob_coupling).__name__
                 in ("CpuProportionalToMemory", "FixedCombos"))
    bills_mem = "memory_gb" in alloc or "memory_gb" in usage

    cpu_total = cpu_values = None
    if bills_cpu:
        spec = usage.get("vcpu")
        if spec is not None:
            g = Fraction(spec.granularity)
            if spec.billing_basis == "per_billable_second":
                step = g * MICRO  # vCPUs in millionths
                k = _ceil_div(cols.cpu * step.denominator, step.numerator)
                cpu_total = g * _isum(k * bt) / bt_per_s
                cpu_values = k * float(g) * bt_s
            else:
                step = g * TIME_SCALE  # consumed vCPU-ms in 1e-12 units
                k = _ceil_div(cols.cpu * cols.exec_us * step.denominator, step.numerator)
                cpu_total = g * _isum(k) / 1000
                cpu_values = k * (float(g) / 1000)
        else:
            spec = alloc.get("vcpu")
            amounts = [v if spec is None else _ceil_mult(v, Fraction(spec.granularity))
                       for v, _ in granted]
            cpu_total, cpu_values = per_pair(amounts)

    mem_total = mem_values = None
    if bills_mem:
        spec = usage.get("memory_gb")
        if spec is not None:
            g = Fraction(spec.granularity)
            step = g * 1024 * MICRO  # GB granule in millionths of a MB
            k = _ceil_div(cols.mem_usage * step.denominator, step.numerator)
            if spec.billing_basis == "per_billable_second":
                mem_total = g * _isum(k * bt) / bt_per_s
                mem_values = k * float(g) * bt_s
            else:
                mem_total = g * _isum(k)
                mem_values = k * float(g)
        else:
            g = Fraction(alloc["memory_gb"].granularity)
            mem_total, mem_values = per_pair([_ceil_mult(m / 1024, g) for _, m in granted])

    return InflationTruth(
        actual_vcpu_s=Fraction(_isum(cols.cpu * cols.exec_us), MICRO * MICRO * 1000),
        actual_gb_s=Fraction(_isum(cols.mem_usage * cols.exec_us),
                             1024 * MICRO * MICRO * 1000),
        billable_vcpu_s=cpu_total,
        billable_gb_s=mem_total,
        vcpu_s_values=cpu_values,
        gb_s_values=mem_values,
    )


def roundup_truth(cols: TraceColumns, gran_ms: str, mem_gran_gb: str,
                  min_exec_ms: int = 1) -> Tuple[Fraction, Fraction]:
    """Exact (mean time roundup in ms, mean memory roundup in GB-s) over
    requests of at least ``min_exec_ms``."""
    keep = cols.exec_us >= min_exec_ms * MICRO
    e = cols.exec_us[keep]
    m = cols.mem_usage[keep]
    n = len(e)
    g = _int(Fraction(gran_ms) * MICRO)
    time_excess = _isum(_ceil_div(e, g) * g - e)
    step = _int(Fraction(mem_gran_gb) * 1024 * MICRO)  # millionths of a MB
    k = _ceil_div(m, step)
    # (k * step - m) millionths of a MB held for e millionths of a ms
    mem_excess = _isum((k * step - m) * e)
    return (Fraction(time_excess, MICRO * n),
            Fraction(mem_excess, 1024 * MICRO * MICRO * 1000 * n))


def rank_error(sorted_values: np.ndarray, estimate: float, q: float) -> float:
    """Distance of ``estimate``'s rank range from the target rank of ``q``,
    as a share of n; the same measure as the sketch's own tests."""
    n = len(sorted_values)
    target = max(1, int(q * n))
    slack = abs(estimate) * 1e-12
    lo = int(np.searchsorted(sorted_values, estimate - slack, side="left")) + 1
    hi = int(np.searchsorted(sorted_values, estimate + slack, side="right"))
    if lo <= target <= hi:
        return 0.0
    return min(abs(lo - target), abs(hi - target)) / n


def relative_gap(got: float, want: Fraction) -> float:
    if want == 0:
        return abs(got)
    return float(abs(Fraction(got) - want) / abs(want))


def check_close(label: str, got, want: Fraction, rel: float, errors: List[str]) -> None:
    if got is None or relative_gap(float(got), want) > rel:
        errors.append(f"{label}: got {got!r}, exact {float(want)!r} (rel tol {rel})")

