"""Cost engine: allocation normalization, billable quantities, and invoice math.

``compute_cost`` is :func:`billable_quantities` (granularities only), then
:func:`price` (unit prices). The first stage's integer form for a pass
over a trace is :class:`faascost.billing.trace_billing.TraceBilling`.
Records are any object with the fields of
:class:`faascost.traces.records.InvocationRecord`: their allocation is two
floats, made an exact :class:`ResourceAllocation` here.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from faascost.billing.model import (
    MEMORY_GB,
    VCPU,
    AllocResourceSpec,
    BillingError,
    CostBreakdown,
    CpuProportionalToMemory,
    FixedCombos,
    IndependentKnobs,
    MissingGranularityError,
    MissingPriceError,
    PlatformBillingConfig,
    RatioConstrained,
    ResourceAllocation,
    UnpricedResourceError,
    UsageResourceSpec,
    allocation,
)
from faascost.money import CONTEXT, Number, ceil_to, dec

_MS_PER_S = Decimal(1000)
_MB_PER_GB = Decimal(1024)
_GB_PER_MB = Decimal("0.0009765625")  # 1 GB is 1024 MB; 1 / 1024 is exact

# Derived vCPU counts are floor-quantized here so that re-normalizing an
# already-normalized allocation reproduces it exactly.
_VCPU_QUANTUM = Decimal("1e-12")

_RATIO_FIX_LIMIT = 100


def normalize_allocation(
    requested: ResourceAllocation, config: PlatformBillingConfig
) -> ResourceAllocation:
    """Map a requested allocation to what the platform would actually grant.

    Whatever the coupling rule, the result never has less of either
    resource than requested (requests beyond 12 fractional digits are not
    representable on the platform knob grids modeled here).
    """
    with decimal.localcontext(CONTEXT):
        coupling = config.knob_coupling
        if isinstance(coupling, IndependentKnobs):
            return requested
        if isinstance(coupling, CpuProportionalToMemory):
            return _normalize_proportional(requested, coupling)
        if isinstance(coupling, FixedCombos):
            return _normalize_combos(requested, coupling)
        if isinstance(coupling, RatioConstrained):
            return _normalize_ratio(requested, coupling)
    raise BillingError(f"unknown knob coupling: {coupling!r}")


def _normalize_proportional(
    requested: ResourceAllocation, coupling: CpuProportionalToMemory
) -> ResourceAllocation:
    # Memory is the real knob. If the vCPU request implies more memory than
    # was asked for, raise memory first, then derive vCPUs from memory.
    mem = max(requested.memory_mb, requested.vcpus * coupling.mem_per_vcpu_mb)
    vcpus = (mem / coupling.mem_per_vcpu_mb).quantize(
        _VCPU_QUANTUM, rounding=decimal.ROUND_FLOOR
    )
    return ResourceAllocation(vcpus, mem, requested.extras)


def _normalize_combos(
    requested: ResourceAllocation, coupling: FixedCombos
) -> ResourceAllocation:
    for vcpu, mem in coupling.combos:  # sorted by memory ascending
        if mem >= requested.memory_mb and vcpu >= requested.vcpus:
            return ResourceAllocation(vcpu, mem, requested.extras)
    raise BillingError("allocation exceeds platform maximum")


def _normalize_ratio(
    requested: ResourceAllocation, coupling: RatioConstrained
) -> ResourceAllocation:
    vcpus = ceil_to(requested.vcpus, coupling.cpu_step) if requested.vcpus else Decimal(0)
    mem = ceil_to(requested.memory_mb, coupling.mem_step_mb) if requested.memory_mb else Decimal(0)
    if vcpus == 0 and mem == 0:
        return ResourceAllocation(Decimal(0), Decimal(0), requested.extras)
    for _ in range(_RATIO_FIX_LIMIT):
        mem_gb = mem / _MB_PER_GB
        if vcpus > 0 and (mem_gb == 0 or vcpus / mem_gb > coupling.max_ratio):
            # Too much CPU per GB: raise memory to the next feasible step.
            mem = ceil_to(vcpus / coupling.max_ratio * _MB_PER_GB, coupling.mem_step_mb)
        elif vcpus / mem_gb < coupling.min_ratio:
            # Too little CPU per GB: raise vCPUs (memory is never lowered).
            vcpus = ceil_to(coupling.min_ratio * mem_gb, coupling.cpu_step)
        else:
            return ResourceAllocation(vcpus, mem, requested.extras)
    raise BillingError("cannot satisfy ratio constraints with these steps")


def rounded_time(raw_ms: Decimal, granularity_ms: Decimal, cutoff_ms: Decimal) -> Decimal:
    """``raw_ms`` raised to the minimum cutoff, then rounded up to the granularity.

    The cutoff is applied before the rounding (documented cutoffs are
    multiples of the granularity, so the order is observationally safe).
    """
    return ceil_to(raw_ms if raw_ms > cutoff_ms else cutoff_ms, granularity_ms)


def billable_time(
    raw_execution_ms: Number, init_ms: Number, config: PlatformBillingConfig
) -> Decimal:
    """Billable wall-clock (or CPU) time in ms: cutoff first, then rounding.

    For the ``cpu_time_only`` kind the caller passes consumed CPU time as
    ``raw_execution_ms``; ``init_ms`` is ignored.
    """
    raw = dec(raw_execution_ms)
    init = dec(init_ms) if init_ms else 0  # a zero needs no conversion
    if raw < 0 or init < 0:
        raise BillingError("durations must be >= 0")
    if init and config.billable_time_kind == "turnaround":
        raw = CONTEXT.add(raw, init)
    if config.time_granularity_ms is None:
        raise MissingGranularityError(
            f"{config.name}: billing granularity not documented; cannot round time"
        )
    return rounded_time(raw, config.time_granularity_ms, config.time_min_cutoff_ms)


def _alloc_amount(alloc: ResourceAllocation, spec: AllocResourceSpec) -> Decimal:
    if spec.resource == VCPU:
        return alloc.vcpus
    if spec.resource == MEMORY_GB:
        return CONTEXT.multiply(alloc.memory_mb, _GB_PER_MB)
    return alloc.extras.get(spec.resource, Decimal(0))


def _usage_amount(record, spec: UsageResourceSpec, raw_exec_ms: Decimal) -> Decimal:
    if spec.resource == VCPU:
        avg_vcpus = dec(record.cpu_usage_avg_vcpus)
        if spec.billing_basis == "absolute":  # consumed vCPU-milliseconds
            return CONTEXT.multiply(avg_vcpus, raw_exec_ms)
        return avg_vcpus
    return CONTEXT.multiply(dec(record.mem_usage_mb), _GB_PER_MB)  # memory_gb


class BillableQuantities(NamedTuple):
    """What one invocation is billed for: the billable time after the cutoff
    and the rounding, and each allocation- and usage-billed resource's amount
    rounded up to its granularity."""

    time_ms: Decimal
    alloc: Mapping[str, Decimal]
    usage: Mapping[str, Decimal]


def allocation_quantities(
    alloc: ResourceAllocation, config: PlatformBillingConfig
) -> Mapping[str, Decimal]:
    """Each allocation-billed resource's granted amount, rounded up; a custom
    resource the config does not bill by allocation raises
    :class:`UnpricedResourceError`."""
    for name in alloc.extras:
        if config.alloc_spec(name) is None:
            raise UnpricedResourceError(f"unpriced resource: {name}")
    return MappingProxyType(
        {
            spec.resource: ceil_to(_alloc_amount(alloc, spec), spec.granularity)
            for spec in config.alloc_resources
        }
    )


def billable_quantities(
    record,
    config: PlatformBillingConfig,
    alloc_amounts: Optional[Mapping[str, Decimal]] = None,
) -> BillableQuantities:
    """Billable time and rounded resource amounts of one invocation, exactly.

    Needs no price.  ``alloc_amounts`` is :func:`allocation_quantities` of
    the granted allocation, by default of the record's own; a pass over a
    trace works it out once per distinct allocation.
    """
    if alloc_amounts is None:
        alloc_amounts = allocation_quantities(_requested(record), config)
    exec_ms = dec(record.exec_duration_ms)
    if config.billable_time_kind == "cpu_time_only":
        raw_time = CONTEXT.multiply(dec(record.cpu_usage_avg_vcpus), exec_ms)
        time_ms = billable_time(raw_time, 0, config)
    else:
        time_ms = billable_time(exec_ms, record.init_duration_ms, config)
    usage = {}
    for spec in config.usage_resources:
        usage[spec.resource] = ceil_to(_usage_amount(record, spec, exec_ms), spec.granularity)
    # tuple.__new__ skips the named tuple's Python-level constructor.
    return tuple.__new__(BillableQuantities, (time_ms, alloc_amounts, usage))


def _requested(record) -> ResourceAllocation:
    """The allocation ``record`` asked for, exactly as its floats read."""
    return allocation(record.alloc_vcpus, record.alloc_memory_mb)


def _require_price(price: Optional[Decimal], what: str, config_name: str) -> Decimal:
    if price is None:
        raise MissingPriceError(f"{config_name}: {what} not documented publicly")
    return price


def price(quantities: BillableQuantities, config: PlatformBillingConfig) -> CostBreakdown:
    """Itemized cost of billable quantities under ``config``'s unit prices.

    A zero amount costs nothing, so its price may be undocumented; any
    other missing price or fee raises :class:`MissingPriceError`.
    """

    def charge(amount: Decimal, unit: Optional[Decimal], per: Decimal, what: str) -> tuple:
        if amount == 0:
            return amount, Decimal(0)
        return amount, amount * per * _require_price(unit, what, config.name)

    with decimal.localcontext(CONTEXT):
        billable_s = quantities.time_ms / _MS_PER_S
        alloc_terms = {}
        for spec in config.alloc_resources:
            alloc_terms[spec.resource] = charge(
                quantities.alloc[spec.resource], spec.unit_price_usd_per_unit_second,
                billable_s, f"allocation price for {spec.resource}",
            )
        usage_terms = {}
        for spec in config.usage_resources:
            per = billable_s if spec.billing_basis == "per_billable_second" else Decimal(1)
            usage_terms[spec.resource] = charge(
                quantities.usage[spec.resource], spec.unit_price_usd_per_unit,
                per, f"usage price for {spec.resource}",
            )
        fee = _require_price(config.invocation_fee_usd, "invocation fee", config.name)
        return CostBreakdown(quantities.time_ms, alloc_terms, usage_terms, fee)


def compute_cost(
    record, config: PlatformBillingConfig, alloc: Optional[ResourceAllocation] = None
) -> CostBreakdown:
    """Itemized cost of one invocation under ``config``; ``alloc`` is the granted
    allocation (see :func:`normalize_allocation`), by default the record's.
    Custom resources reach the invoice only through ``alloc``'s extras."""
    # Entered once here, not by each ceil_to, which enters it unless it is current.
    with decimal.localcontext(CONTEXT):
        granted = allocation_quantities(_requested(record) if alloc is None else alloc, config)
        return price(billable_quantities(record, config, granted), config)


def fee_equivalent_walltime(
    config: PlatformBillingConfig, alloc: ResourceAllocation
) -> Decimal:
    """Wall time (ms) whose allocation charge equals the invocation fee.

    Exact division of the fee by the price of one millisecond of the
    allocation; no time rounding is applied.  Consumption-billed resources
    do not contribute (their charge needs a usage figure, not an allocation).
    """
    no_usage = {s.resource: Decimal(0) for s in config.usage_resources}
    one_ms = BillableQuantities(Decimal(1), allocation_quantities(alloc, config), no_usage)
    cost = price(one_ms, config)
    with decimal.localcontext(CONTEXT):
        per_ms = sum(usd for _, usd in cost.alloc_terms.values())
        if per_ms == 0:
            raise BillingError("fee has no time equivalent")
        return cost.fee_usd / per_ms
