"""Independent transcription of the invoice formula, in rational arithmetic.

This is the reference implementation for oracle-equivalence tests. It was
written before the engine it checks and deliberately shares no arithmetic
or formatting code with ``faascost``: every quantity is a
:class:`fractions.Fraction` and USD strings are produced by integer
scaling with half-to-even rounding.

Transcribed contract (one invocation):

    total = sum over alloc specs of ceil(A_r/G_r)*G_r * ceil(T/G_T)*G_T/1000 * C_r
          + sum over usage specs of ceil(U_r/G_r)*G_r * C_r          (absolute)
            or ceil(U_r/G_r)*G_r * ceil(T/G_T)*G_T/1000 * C_r        (per billable second)
          + C_0

    with T = max(raw time, cutoff) and raw time picked by the billable
    time kind (execution | turnaround | cpu_time_only).

Amounts are derived from the record exactly as documented by the engine's
public contract: alloc vcpu -> alloc.vcpus, alloc memory_gb ->
alloc.memory_mb/1024; usage vcpu (absolute) -> cpu_usage_avg_vcpus *
exec_duration_ms, usage vcpu (per billable second) -> cpu_usage_avg_vcpus,
usage memory_gb -> mem_usage_mb/1024.
"""

from __future__ import annotations

import math
from fractions import Fraction

PLACES = 12


def frac(value) -> Fraction:
    """Exact conversion; floats go through repr to mirror decimal intake."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(str(value))


def ceil_mult(amount: Fraction, granularity: Fraction) -> Fraction:
    if amount == 0:
        return Fraction(0)
    return Fraction(math.ceil(amount / granularity)) * granularity


def usd_str(amount: Fraction, places: int = PLACES) -> str:
    """Fixed-point string, half-to-even at `places`, via integer arithmetic."""
    assert amount >= 0
    scaled = amount * 10**places
    q, r = divmod(scaled.numerator, scaled.denominator)
    twice = 2 * r
    if twice > scaled.denominator or (twice == scaled.denominator and q % 2 == 1):
        q += 1
    whole, part = divmod(q, 10**places)
    return f"{whole}.{part:0{places}d}"


def reference_billable_time_ms(raw_ms: Fraction, init_ms: Fraction, config) -> Fraction:
    if config.billable_time_kind == "turnaround":
        base = raw_ms + init_ms
    else:
        base = raw_ms
    clamped = max(base, frac(config.time_min_cutoff_ms))
    if clamped == 0:
        return Fraction(0)
    return ceil_mult(clamped, frac(config.time_granularity_ms))


def reference_cost(record, config) -> dict:
    """Reference invoice: billable time (Fraction) plus USD term strings."""
    exec_ms = frac(record.exec_duration_ms)
    init_ms = frac(record.init_duration_ms)
    cpu_avg = frac(record.cpu_usage_avg_vcpus)
    if config.billable_time_kind == "cpu_time_only":
        raw_ms = cpu_avg * exec_ms
    else:
        raw_ms = exec_ms
    billable_ms = reference_billable_time_ms(raw_ms, init_ms, config)
    billable_s = billable_ms / 1000

    total = Fraction(0)
    alloc_terms = {}
    for spec in config.alloc_resources:
        if spec.resource == "vcpu":
            amount = frac(record.alloc.vcpus)
        elif spec.resource == "memory_gb":
            amount = frac(record.alloc.memory_mb) / 1024
        else:
            # A record carries no other allocation: pricing it at $0 would hide the gap.
            raise ValueError(f"no record carries an allocation of {spec.resource!r}")
        billed = ceil_mult(amount, frac(spec.granularity))
        usd = billed * billable_s * frac(spec.unit_price_usd_per_unit_second)
        alloc_terms[spec.resource] = usd
        total += usd

    usage_terms = {}
    for spec in config.usage_resources:
        if spec.resource == "vcpu":
            amount = cpu_avg * exec_ms if spec.billing_basis == "absolute" else cpu_avg
        elif spec.resource == "memory_gb":
            amount = frac(record.mem_usage_mb) / 1024
        else:
            # A record carries no other usage: pricing it at $0 would hide the gap.
            raise ValueError(f"no record carries usage of {spec.resource!r}")
        billed = ceil_mult(amount, frac(spec.granularity))
        usd = billed * frac(spec.unit_price_usd_per_unit)
        if spec.billing_basis == "per_billable_second":
            usd = billed * billable_s * frac(spec.unit_price_usd_per_unit)
        usage_terms[spec.resource] = usd
        total += usd

    fee = frac(config.invocation_fee_usd)
    total += fee
    return {
        "billable_time_ms": billable_ms,
        "alloc_terms": {r: usd_str(u) for r, u in alloc_terms.items()},
        "usage_terms": {r: usd_str(u) for r, u in usage_terms.items()},
        "fee_usd": usd_str(fee),
        "total_usd": usd_str(total),
    }
