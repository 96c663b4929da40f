"""What each record of a trace is billed for, in integers: :class:`TraceBilling`.

It is :func:`faascost.billing.engine.billable_quantities` for a pass over a
trace, and the one rule for what a record is billed for in vCPU-s and GB-s:
the inflation analysis uses it to do the Decimal work once per distinct
key, and ``faascost bill --records`` to price each distinct key once, a
later key of an allocation as its steps times the allocation's one-step
price when the platform bills no usage.
It sits apart from ``engine.py`` so that neither module's compile raises
the peak RSS of a command (see :mod:`faascost.billing`).
"""

from __future__ import annotations

from decimal import Decimal
from typing import Callable, Dict, Mapping, Optional, Tuple

from faascost.billing import engine
from faascost.billing.engine import (
    _MB_PER_GB,
    BillableQuantities,
    allocation_quantities,
    billable_quantities,
)
from faascost.billing.model import (
    MEMORY_GB,
    VCPU,
    CostBreakdown,
    CpuProportionalToMemory,
    FixedCombos,
    PlatformBillingConfig,
    ResourceAllocation,
)
from faascost.money import CONTEXT, MICROS_LIMIT, whole_units

_S_PER_MS = Decimal("0.001")


def rounded_steps(raw: int, granularity: int, cutoff: int) -> int:
    """:func:`faascost.billing.engine.rounded_time` in integer units: the
    whole granularity steps billed for ``raw`` once raised to the cutoff."""
    return -(-(raw if raw > cutoff else cutoff) // granularity)


# How TraceBilling reads a usage-billed resource's amount.
_CPU, _CPU_MS, _MEM = range(3)


def whole_time_grid(granularity: Decimal, cutoff: Decimal,
                    scale: int) -> Optional[Tuple[int, int]]:
    """A time granularity and cutoff in whole ``1/scale`` units, or None when
    either is not a whole number of units."""
    units = whole_units(granularity, scale)
    cutoff_units = whole_units(cutoff, scale)
    if units and cutoff_units is not None:
        return units, cutoff_units
    return None


def _step_grid(config: PlatformBillingConfig) -> tuple:
    """The time granularity and cutoff in whole units, and per usage-billed
    resource (resource, how to read its amount, granularity in units, in
    Decimal).  The granularity and cutoff are None when the config has no
    time granularity, or a granularity or cutoff is not a whole number of
    units."""
    usage = []
    for spec in config.usage_resources:
        if spec.resource == VCPU and spec.billing_basis == "absolute":
            how, units = _CPU_MS, whole_units(spec.granularity, 10**12)
        elif spec.resource == VCPU:
            how, units = _CPU, whole_units(spec.granularity, 10**6)
        else:  # memory_gb, read in 10^-6 MB
            how, units = _MEM, whole_units(spec.granularity * _MB_PER_GB, 10**6)
        usage.append((spec.resource, how, units, spec.granularity))
    usage = tuple(usage)
    if config.time_granularity_ms is not None and all(units for _, _, units, _ in usage):
        scale = 10**12 if config.billable_time_kind == "cpu_time_only" else 10**6
        grid = whole_time_grid(config.time_granularity_ms, config.time_min_cutoff_ms, scale)
        if grid is not None:
            return (*grid, usage)
    return None, None, usage


def _step_key(billing: TraceBilling, granularity: int,
              cutoff: int) -> Callable[[object], tuple]:
    """``billing``'s key function on the integer grid of its config.

    Each field it reads, it reads as :func:`faascost.money.micros` does,
    inline: a field off the grid sends the record to ``billing._exact_key``.
    It reads CPU, memory and init only when the config bills them.
    """
    kind = billing.config.billable_time_kind
    cpu_time = kind == "cpu_time_only"
    turnaround = kind == "turnaround"
    steps_of = tuple((how, units) for _, how, units, _ in billing._usage)
    reads_cpu = cpu_time or any(how != _MEM for how, _ in steps_of)
    reads_mem = any(how == _MEM for how, _ in steps_of)

    def key(record) -> tuple:
        value = record.exec_duration_ms
        if not 0.0 <= value < MICROS_LIMIT:
            return billing._exact_key(record)
        exec_units = round(value * 1e6)
        if exec_units / 1e6 != value:
            return billing._exact_key(record)
        cpu = mem = 0
        if reads_cpu:
            value = record.cpu_usage_avg_vcpus
            if not 0.0 <= value < MICROS_LIMIT:
                return billing._exact_key(record)
            cpu = round(value * 1e6)
            if cpu / 1e6 != value:
                return billing._exact_key(record)
        if reads_mem:
            value = record.mem_usage_mb
            if not 0.0 <= value < MICROS_LIMIT:
                return billing._exact_key(record)
            mem = round(value * 1e6)
            if mem / 1e6 != value:
                return billing._exact_key(record)
        if cpu_time:
            raw = cpu * exec_units
        elif turnaround and record.init_duration_ms:
            value = record.init_duration_ms
            if not 0.0 <= value < MICROS_LIMIT:
                return billing._exact_key(record)
            raw = round(value * 1e6)
            if raw / 1e6 != value:
                return billing._exact_key(record)
            raw += exec_units
        else:
            raw = exec_units
        # rounded_steps, inline; usage amounts are never negative, so their
        # cutoff of 0 is moot.
        steps = (record.alloc_vcpus, record.alloc_memory_mb,
                 -(-(raw if raw > cutoff else cutoff) // granularity))
        for how, units in steps_of:
            amount = mem if how == _MEM else cpu if how == _CPU else cpu * exec_units
            steps += (-(-amount // units),)
        return steps

    return key


def _billed_s(quantities: BillableQuantities, resource: str, basis: Optional[str],
              allocated: Decimal) -> Decimal:
    """Billable resource-seconds of one resource: ``allocated`` over the
    billable time when it is billed by allocation (``basis`` None), else
    its usage-billed amount."""
    if basis is None:
        return CONTEXT.multiply(CONTEXT.multiply(allocated, _S_PER_MS), quantities.time_ms)
    amount = quantities.usage[resource]
    if basis == "per_billable_second":
        return CONTEXT.multiply(CONTEXT.multiply(amount, quantities.time_ms), _S_PER_MS)
    # Absolute: vCPU time is metered in vCPU-ms; memory is taken as GB-s.
    return CONTEXT.multiply(amount, _S_PER_MS) if resource == VCPU else amount


class TraceBilling:
    """What each record of a trace is billed for, and which records are
    billed alike: :func:`~faascost.billing.engine.billable_quantities` in
    integers, for a pass over a trace.

    ``grant(vcpus, memory_mb)`` is the granted allocation (normalized,
    unless ``normalize`` is false) of a record's two allocation floats and
    its :func:`~faascost.billing.engine.allocation_quantities`, worked out
    once per distinct pair: the one place a trace allocation becomes a
    :class:`ResourceAllocation`.
    ``key(record)`` is the record's allocation and its billed time and usage
    amounts as whole granularity steps. Every record with that key is
    billed for ``quantities(key)``, so the Decimal work is done once per
    distinct key.  The steps are the cutoff first, then the ceiling, on
    fields read as :func:`faascost.money.micros` reads them, in 10^-6 ms,
    MB or vCPU, and in 10^-12 for products of two fields (CPU-time billing,
    absolute vCPU-ms).  ``key`` is a function built once, at construction,
    for the config's grid.  A record off that grid (a field that is not a
    whole count of millionths, or a granularity or cutoff that is not a
    whole number of units) is keyed by its billable quantities, each amount
    divided by its granularity.  A platform with no time granularity raises
    :class:`~faascost.billing.model.MissingGranularityError` on the first
    record.

    ``seconds(key)`` is the billed (vCPU-s, GB-s), each None for a resource
    the platform does not bill. When the platform bills no usage-based
    resource, it is the allocation's seconds per time step, worked out once
    per allocation, times the key's step count: the products are exact, so
    this is the same Decimal as pricing the key's quantities.

    ``step_cost(vcpus, memory_mb)`` is :func:`~faascost.billing.engine.price`
    of one time step of the allocation, worked out once per allocation. When
    the platform bills no usage-based resource, a key's invoice is linear in
    its steps: billable time and each allocation term are the steps times
    this one step's, and the fee is the same.
    """

    #: Distinct keys a pass keeps. Past it, the inflation analysis takes its
    #: billable percentiles from a GK sketch (its totals stay exact), and
    #: ``bill --records`` prices a record with a new key on its own.
    KEYS_CAP = 2**16

    __slots__ = ("config", "bills_cpu", "bills_mem", "key", "_normalize", "_grants",
                 "_cpu_basis", "_mem_basis", "_usage", "_step_s", "_step_cost")

    def __init__(self, config: PlatformBillingConfig, *, normalize: bool = True) -> None:
        self.config = config
        self._normalize = normalize
        self._grants: Dict[tuple, tuple] = {}
        # Billed (vCPU-s, GB-s) of one time step, per allocation, when no
        # resource is billed by usage.
        self._step_s: Dict[tuple, tuple] = {}
        # Priced one time step, per allocation.
        self._step_cost: Dict[tuple, CostBreakdown] = {}
        usage_cpu = config.usage_spec(VCPU)
        usage_mem = config.usage_spec(MEMORY_GB)
        self._cpu_basis = None if usage_cpu is None else usage_cpu.billing_basis
        self._mem_basis = None if usage_mem is None else usage_mem.billing_basis
        # CPU is billed when priced directly or when the knob coupling ties a
        # vCPU share to every billed memory size (proportional and combo plans).
        self.bills_cpu = (
            config.alloc_spec(VCPU) is not None
            or usage_cpu is not None
            or isinstance(config.knob_coupling, (CpuProportionalToMemory, FixedCombos))
            or config.billable_time_kind == "cpu_time_only"
        )
        self.bills_mem = config.alloc_spec(MEMORY_GB) is not None or usage_mem is not None
        granularity, cutoff, self._usage = _step_grid(config)
        if granularity is None:
            self.key = self._exact_key
        else:
            self.key = _step_key(self, granularity, cutoff)

    def grant(self, vcpus: float, memory_mb: float
              ) -> Tuple[ResourceAllocation, Mapping[str, Decimal]]:
        # Keyed as a record key's first two items.
        granted = self._grants.get((vcpus, memory_mb))
        if granted is None:
            alloc = ResourceAllocation(vcpus, memory_mb)
            if self._normalize:
                # Through the module, where a caller may have wrapped it.
                alloc = engine.normalize_allocation(alloc, self.config)
            granted = (alloc, allocation_quantities(alloc, self.config))
            self._grants[vcpus, memory_mb] = granted
        return granted

    def _exact_key(self, record) -> tuple:
        """The key of a record off the integer grid, from its exact quantities."""
        vcpus, memory_mb = record.alloc_vcpus, record.alloc_memory_mb
        billed = billable_quantities(record, self.config, self.grant(vcpus, memory_mb)[1])
        steps = [CONTEXT.divide(billed.time_ms, self.config.time_granularity_ms)]
        steps += [CONTEXT.divide(billed.usage[resource], granularity)
                  for resource, _, _, granularity in self._usage]
        return (vcpus, memory_mb, *map(int, steps))

    def quantities(self, key: tuple) -> BillableQuantities:
        time_ms = CONTEXT.multiply(key[2], self.config.time_granularity_ms)
        usage = {
            resource: CONTEXT.multiply(steps, granularity)
            for steps, (resource, _, _, granularity) in zip(key[3:], self._usage)
        }
        return tuple.__new__(BillableQuantities, (time_ms, self.grant(key[0], key[1])[1], usage))

    def seconds(self, key: tuple) -> tuple:
        if self._usage:
            return self._priced(key)
        step_s = self._step_s.get((key[0], key[1]))
        if step_s is None:
            step_s = self._step_s[key[0], key[1]] = self._priced((key[0], key[1], 1))
        vcpu_s, gb_s = step_s
        steps = key[2]
        return (None if vcpu_s is None else CONTEXT.multiply(vcpu_s, steps),
                None if gb_s is None else CONTEXT.multiply(gb_s, steps))

    def step_cost(self, vcpus: float, memory_mb: float) -> CostBreakdown:
        cost = self._step_cost.get((vcpus, memory_mb))
        if cost is None:
            cost = engine.price(self.quantities((vcpus, memory_mb, 1)), self.config)
            self._step_cost[vcpus, memory_mb] = cost
        return cost

    def _priced(self, key: tuple) -> tuple:
        """``seconds(key)`` from the key's billable quantities."""
        quantities = self.quantities(key)
        vcpu_s = gb_s = None
        if self.bills_cpu:
            # A vCPU share granted but not priced is billed as granted.
            allocated = quantities.alloc.get(VCPU, self.grant(key[0], key[1])[0].vcpus)
            vcpu_s = _billed_s(quantities, VCPU, self._cpu_basis, allocated)
        if self.bills_mem:
            allocated = quantities.alloc.get(MEMORY_GB, 0)
            gb_s = _billed_s(quantities, MEMORY_GB, self._mem_basis, allocated)
        return vcpu_s, gb_s
