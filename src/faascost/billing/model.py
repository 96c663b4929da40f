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

from decimal import Decimal
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Tuple, Union

from faascost.checked import checked
from faascost.money import CONTEXT, MAX_AMOUNT, Number, dec, usd_string

# The resources a trace record carries, and so the only ones billed.
VCPU = "vcpu"
MEMORY_GB = "memory_gb"

BILLABLE_TIME_KINDS = ("execution", "turnaround", "cpu_time_only")

USAGE_BASES = ("absolute", "per_billable_second")

_MAX_AMOUNT = Decimal(MAX_AMOUNT)


class BillingError(ValueError):
    """Base class for billing model and engine errors."""


class MissingPriceError(BillingError):
    """A required unit price or fee is not documented in the config."""


class MissingGranularityError(BillingError):
    """Rounding was requested but the config has no documented granularity."""


def _price(value: Optional[Number]) -> Optional[Decimal]:
    """An optional unit price as a Decimal; a negative one is rejected."""
    if value is None:
        return None
    price = dec(value)
    if price < 0:
        raise BillingError("unit price must be >= 0")
    return price


def _metered(resource: str, billed_by: str) -> None:
    """Reject a resource no record carries: billed, it would cost $0 unseen."""
    if resource not in (VCPU, MEMORY_GB):
        raise BillingError(f"{billed_by} of {resource!r} is not metered: {billed_by} is billed "
                           f"on {VCPU} and {MEMORY_GB} only")


class IndependentKnobs(NamedTuple):
    """Resources are set independently; requested allocation is granted as is."""


@checked
class CpuProportionalToMemory(NamedTuple):
    """vCPUs are granted in proportion to allocated memory.

    ``mem_per_vcpu_mb`` is the memory that corresponds to one full vCPU.
    A request naming more vCPUs than its memory implies is satisfied by
    raising memory first, so normalization never shrinks either resource.
    """

    mem_per_vcpu_mb: Decimal

    def _check(self):
        mem_per_vcpu_mb = dec(self.mem_per_vcpu_mb)
        if mem_per_vcpu_mb <= 0:
            raise BillingError("mem_per_vcpu_mb must be > 0")
        return tuple.__new__(type(self), (mem_per_vcpu_mb,))


@checked
class FixedCombos(NamedTuple):
    """Only a fixed list of (vcpu, memory_mb) pairs can be allocated."""

    combos: Tuple[Tuple[Decimal, Decimal], ...]

    def _check(self):
        combos = tuple((dec(v), dec(m)) for v, m in self.combos)
        if not combos:
            raise BillingError("fixed_combos requires a nonempty combo list")
        mems = [m for _, m in combos]
        if any(b <= a for a, b in zip(mems, mems[1:])):
            raise BillingError("fixed_combos must be strictly increasing in memory")
        if any(v < 0 or m <= 0 for v, m in combos):
            raise BillingError("combo amounts must be positive")
        return tuple.__new__(type(self), (combos,))


@checked
class RatioConstrained(NamedTuple):
    """vCPU and memory are stepped knobs bound by a vCPU : memory-GB ratio."""

    min_ratio: Decimal
    max_ratio: Decimal
    cpu_step: Decimal
    mem_step_mb: Decimal

    def _check(self):
        value = tuple.__new__(type(self), map(dec, self))
        if not 0 < value.min_ratio <= value.max_ratio:
            raise BillingError("need 0 < min_ratio <= max_ratio")
        if value.cpu_step <= 0 or value.mem_step_mb <= 0:
            raise BillingError("knob steps must be > 0")
        return value


KnobCoupling = Union[IndependentKnobs, CpuProportionalToMemory, FixedCombos, RatioConstrained]


@checked
class AllocResourceSpec(NamedTuple):
    """One allocation-billed resource: granularity and price per unit-second.

    ``resource`` is ``vcpu`` or ``memory_gb``, the only allocation a trace
    record carries; the granularity and price are in that resource's unit
    (vCPUs or GB). ``unit_price_usd_per_unit_second`` may be ``None`` when
    the platform does not document it.
    """

    resource: str
    granularity: Decimal
    unit_price_usd_per_unit_second: Optional[Decimal] = None

    def _check(self):
        granularity = dec(self.granularity)
        price = _price(self.unit_price_usd_per_unit_second)
        _metered(self.resource, "allocation")
        if granularity <= 0:
            raise BillingError("granularity must be > 0")
        return tuple.__new__(type(self), (self.resource, granularity, price))


@checked
class UsageResourceSpec(NamedTuple):
    """One usage-billed resource: ``vcpu`` or ``memory_gb``, the only usage
    a trace record carries.

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

    def _check(self):
        granularity = dec(self.granularity)
        price = _price(self.unit_price_usd_per_unit)
        _metered(self.resource, "usage")
        if granularity <= 0:
            raise BillingError("granularity must be > 0")
        if self.billing_basis not in USAGE_BASES:
            raise BillingError(f"unknown billing basis: {self.billing_basis!r}")
        return tuple.__new__(type(self), (self.resource, granularity, price, self.billing_basis))


@checked
class PlatformBillingConfig(NamedTuple):
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

    def _check(self):
        if self.billable_time_kind not in BILLABLE_TIME_KINDS:
            raise BillingError(f"unknown billable time kind: {self.billable_time_kind!r}")
        granularity = self.time_granularity_ms
        if granularity is not None:
            granularity = dec(granularity)
            if granularity <= 0:
                raise BillingError("time_granularity_ms must be > 0")
        cutoff = dec(self.time_min_cutoff_ms)
        if cutoff < 0:
            raise BillingError("time_min_cutoff_ms must be >= 0")
        fee = self.invocation_fee_usd
        if fee is not None:
            fee = dec(fee)
            if fee < 0:
                raise BillingError("invocation_fee_usd must be >= 0")
        alloc = tuple(self.alloc_resources)
        usage = tuple(self.usage_resources)
        names = [s.resource for s in alloc] + [s.resource for s in usage]
        if len(set(names)) != len(names):
            raise BillingError("each resource may appear in at most one spec list")
        return tuple.__new__(type(self), (self.name, self.billable_time_kind, granularity, cutoff,
                                          alloc, usage, fee, self.knob_coupling, self.notes))

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


@checked
class ResourceAllocation(NamedTuple):
    """Resources granted to one sandbox: vCPUs and memory.

    Each amount is converted by :func:`~faascost.money.dec` and lies in
    ``[0, MAX_AMOUNT)``.
    """

    vcpus: Decimal = Decimal(0)
    memory_mb: Decimal = Decimal(0)

    def _check(self):
        vcpus = dec(self.vcpus)
        memory_mb = dec(self.memory_mb)
        if not (0 <= vcpus < _MAX_AMOUNT and 0 <= memory_mb < _MAX_AMOUNT):
            raise BillingError("allocation amounts must be >= 0 and below 2**53")
        return tuple.__new__(type(self), (vcpus, memory_mb))


@checked
class CostBreakdown(NamedTuple):
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

    def _check(self):
        alloc_terms = MappingProxyType(dict(self.alloc_terms))
        usage_terms = MappingProxyType(dict(self.usage_terms))
        if self.fee_usd < 0 or any(
            usd < 0 for _, usd in [*alloc_terms.values(), *usage_terms.values()]
        ):
            raise BillingError("cost components must be >= 0")
        return tuple.__new__(type(self), (self.billable_time_ms, alloc_terms, usage_terms,
                                          self.fee_usd))

    @property
    def total_usd(self) -> Decimal:
        total = self.fee_usd
        for _, usd in self.alloc_terms.values():
            total = CONTEXT.add(total, usd)
        for _, usd in self.usage_terms.values():
            total = CONTEXT.add(total, usd)
        return total

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
