"""Domain types for the generalized pay-per-use billing model.

The cost of one invocation is modeled as

    cost = sum over allocation-billed resources r of
               ceil(ALLOC(r)/G_r) * G_r * ceil(T/G_T) * G_T * C_r
         + sum over usage-billed resources r of
               ceil(USG(r)/G_r) * G_r * C_r          (absolute basis)
           or  ceil(USG(r)/G_r) * G_r * T_s * C_r    (per-billable-second basis)
         + C_0

where T is the billable wall-clock time (execution, turnaround, or consumed
CPU time depending on the platform), G_* are billing granularities, C_r are
unit prices, and C_0 is the fixed invocation fee.  The per-billable-second
usage basis covers platforms that bill *consumed* memory over billable time
(size rounded up, then multiplied by billable seconds); the absolute basis
covers platforms that bill a consumed quantity directly (e.g. CPU
milliseconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from types import MappingProxyType
from typing import Mapping, Optional, Tuple, Union

from faascost.money import MAX_AMOUNT, Number, dec, usd_string

# Canonical resource identifiers. Any other string is a custom resource.
VCPU = "vcpu"
MEMORY_GB = "memory_gb"

BILLABLE_TIME_KINDS = ("execution", "turnaround", "cpu_time_only")

USAGE_BASES = ("absolute", "per_billable_second")

_MAX_AMOUNT = Decimal(MAX_AMOUNT)


class BillingError(ValueError):
    """Base class for billing model and engine errors."""


class UnpricedResourceError(BillingError):
    """A record carries a resource the platform config does not price."""


class MissingPriceError(BillingError):
    """A required unit price or fee is not documented in the config."""


class MissingGranularityError(BillingError):
    """Rounding was requested but the config has no documented granularity."""


@dataclass(frozen=True)
class IndependentKnobs:
    """Resources are set independently; requested allocation is granted as is."""


@dataclass(frozen=True)
class CpuProportionalToMemory:
    """vCPUs are granted in proportion to allocated memory.

    ``mem_per_vcpu_mb`` is the memory that corresponds to one full vCPU.
    A request naming more vCPUs than its memory implies is satisfied by
    raising memory first, so normalization never shrinks either resource.
    """

    mem_per_vcpu_mb: Decimal

    def __post_init__(self) -> None:
        object.__setattr__(self, "mem_per_vcpu_mb", dec(self.mem_per_vcpu_mb))
        if self.mem_per_vcpu_mb <= 0:
            raise BillingError("mem_per_vcpu_mb must be > 0")


@dataclass(frozen=True)
class FixedCombos:
    """Only a fixed list of (vcpu, memory_mb) pairs can be allocated."""

    combos: Tuple[Tuple[Decimal, Decimal], ...]

    def __post_init__(self) -> None:
        combos = tuple((dec(v), dec(m)) for v, m in self.combos)
        object.__setattr__(self, "combos", combos)
        if not combos:
            raise BillingError("fixed_combos requires a nonempty combo list")
        mems = [m for _, m in combos]
        if any(b <= a for a, b in zip(mems, mems[1:])):
            raise BillingError("fixed_combos must be strictly increasing in memory")
        if any(v < 0 or m <= 0 for v, m in combos):
            raise BillingError("combo amounts must be positive")


@dataclass(frozen=True)
class RatioConstrained:
    """vCPU and memory are stepped knobs bound by a vCPU : memory-GB ratio."""

    min_ratio: Decimal
    max_ratio: Decimal
    cpu_step: Decimal
    mem_step_mb: Decimal

    def __post_init__(self) -> None:
        for name in ("min_ratio", "max_ratio", "cpu_step", "mem_step_mb"):
            object.__setattr__(self, name, dec(getattr(self, name)))
        if not 0 < self.min_ratio <= self.max_ratio:
            raise BillingError("need 0 < min_ratio <= max_ratio")
        if self.cpu_step <= 0 or self.mem_step_mb <= 0:
            raise BillingError("knob steps must be > 0")


KnobCoupling = Union[IndependentKnobs, CpuProportionalToMemory, FixedCombos, RatioConstrained]


@dataclass(frozen=True)
class AllocResourceSpec:
    """One allocation-billed resource: granularity and price per unit-second.

    ``resource`` is ``vcpu``, ``memory_gb``, or a custom name; the
    granularity and price are in that resource's unit (vCPUs or GB).
    ``unit_price_usd_per_unit_second`` may be ``None`` when the platform
    does not document it.
    """

    resource: str
    granularity: Decimal
    unit_price_usd_per_unit_second: Optional[Decimal] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "granularity", dec(self.granularity))
        if self.unit_price_usd_per_unit_second is not None:
            price = dec(self.unit_price_usd_per_unit_second)
            object.__setattr__(self, "unit_price_usd_per_unit_second", price)
            if price < 0:
                raise BillingError("unit price must be >= 0")
        if self.granularity <= 0:
            raise BillingError("granularity must be > 0")


@dataclass(frozen=True)
class UsageResourceSpec:
    """One usage-billed resource.

    Units by convention: ``vcpu`` usage on the ``absolute`` basis is
    consumed vCPU-milliseconds (granularity and price per vCPU-ms);
    ``memory_gb`` usage on the ``per_billable_second`` basis is consumed GB
    (size rounded to the granularity, then charged per GB-second of
    billable time).
    """

    resource: str
    granularity: Decimal
    unit_price_usd_per_unit: Optional[Decimal] = None
    billing_basis: str = "absolute"

    def __post_init__(self) -> None:
        object.__setattr__(self, "granularity", dec(self.granularity))
        if self.unit_price_usd_per_unit is not None:
            price = dec(self.unit_price_usd_per_unit)
            object.__setattr__(self, "unit_price_usd_per_unit", price)
            if price < 0:
                raise BillingError("unit price must be >= 0")
        if self.granularity <= 0:
            raise BillingError("granularity must be > 0")
        if self.billing_basis not in USAGE_BASES:
            raise BillingError(f"unknown billing basis: {self.billing_basis!r}")


@dataclass(frozen=True)
class PlatformBillingConfig:
    """All billing parameters of one platform/plan."""

    name: str
    billable_time_kind: str
    time_granularity_ms: Optional[Decimal]
    time_min_cutoff_ms: Decimal
    alloc_resources: Tuple[AllocResourceSpec, ...]
    usage_resources: Tuple[UsageResourceSpec, ...]
    invocation_fee_usd: Optional[Decimal]
    knob_coupling: KnobCoupling
    notes: str = ""

    def __post_init__(self) -> None:
        if self.billable_time_kind not in BILLABLE_TIME_KINDS:
            raise BillingError(f"unknown billable time kind: {self.billable_time_kind!r}")
        if self.time_granularity_ms is not None:
            gran = dec(self.time_granularity_ms)
            object.__setattr__(self, "time_granularity_ms", gran)
            if gran <= 0:
                raise BillingError("time_granularity_ms must be > 0")
        object.__setattr__(self, "time_min_cutoff_ms", dec(self.time_min_cutoff_ms))
        if self.time_min_cutoff_ms < 0:
            raise BillingError("time_min_cutoff_ms must be >= 0")
        if self.invocation_fee_usd is not None:
            fee = dec(self.invocation_fee_usd)
            object.__setattr__(self, "invocation_fee_usd", fee)
            if fee < 0:
                raise BillingError("invocation_fee_usd must be >= 0")
        object.__setattr__(self, "alloc_resources", tuple(self.alloc_resources))
        object.__setattr__(self, "usage_resources", tuple(self.usage_resources))
        names = [s.resource for s in self.alloc_resources]
        names += [s.resource for s in self.usage_resources]
        if len(set(names)) != len(names):
            raise BillingError("each resource may appear in at most one spec list")

    def alloc_spec(self, resource: str) -> Optional[AllocResourceSpec]:
        for spec in self.alloc_resources:
            if spec.resource == resource:
                return spec
        return None

    def usage_spec(self, resource: str) -> Optional[UsageResourceSpec]:
        for spec in self.usage_resources:
            if spec.resource == resource:
                return spec
        return None


@dataclass(frozen=True)
class ResourceAllocation:
    """Resources granted to one sandbox: vCPUs, memory, optional extras.

    Each amount lies in ``[0, MAX_AMOUNT)``.
    """

    vcpus: Decimal = Decimal(0)
    memory_mb: Decimal = Decimal(0)
    extras: Mapping[str, Decimal] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vcpus", dec(self.vcpus))
        object.__setattr__(self, "memory_mb", dec(self.memory_mb))
        extras = MappingProxyType({k: dec(v) for k, v in self.extras.items()})
        object.__setattr__(self, "extras", extras)
        amounts = (self.vcpus, self.memory_mb, *extras.values())
        if not all(0 <= v < _MAX_AMOUNT for v in amounts):
            raise BillingError("allocation amounts must be >= 0 and below 2**53")


@dataclass(frozen=True)
class CostBreakdown:
    """Itemized cost of one invocation.

    ``alloc_terms`` / ``usage_terms`` map resource name to
    ``(billable_amount, usd)``.  All decimals are kept unrounded;
    ``total_usd`` is the exact sum of the parts.  Serialization rounds to
    12 fractional digits.
    """

    billable_time_ms: Decimal
    alloc_terms: Mapping[str, Tuple[Decimal, Decimal]]
    usage_terms: Mapping[str, Tuple[Decimal, Decimal]]
    fee_usd: Decimal
    total_usd: Decimal = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alloc_terms", MappingProxyType(dict(self.alloc_terms)))
        object.__setattr__(self, "usage_terms", MappingProxyType(dict(self.usage_terms)))
        total = self.fee_usd
        for _, usd in self.alloc_terms.values():
            total += usd
        for _, usd in self.usage_terms.values():
            total += usd
        object.__setattr__(self, "total_usd", total)
        if self.fee_usd < 0 or any(
            usd < 0 for _, usd in [*self.alloc_terms.values(), *self.usage_terms.values()]
        ):
            raise BillingError("cost components must be >= 0")

    def as_dict(self) -> dict:
        """JSON-ready form with USD amounts as fixed-point decimal strings."""
        return {
            "billable_time_ms": str(self.billable_time_ms),
            "alloc_terms": {
                r: {"billable_amount": str(a), "usd": usd_string(u)}
                for r, (a, u) in sorted(self.alloc_terms.items())
            },
            "usage_terms": {
                r: {"billable_amount": str(a), "usd": usd_string(u)}
                for r, (a, u) in sorted(self.usage_terms.items())
            },
            "fee_usd": usd_string(self.fee_usd),
            "total_usd": usd_string(self.total_usd),
        }


def allocation(vcpus: Number = 0, memory_mb: Number = 0, **extras: Number) -> ResourceAllocation:
    """Convenience constructor accepting plain numbers."""
    return ResourceAllocation(dec(vcpus), dec(memory_mb), {k: dec(v) for k, v in extras.items()})
