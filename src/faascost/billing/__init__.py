"""Generalized pay-per-use billing: cost engine and platform configs.

Unlike the other layers, this package imports its four modules at once,
because ``analyze`` and ``bill --records`` run all four. Bound on first
read instead, they and PyYAML were compiled only after ``bill --records``
or ``analyze`` had opened its trace, and with no bytecode cached the peak
RSS of those commands rose by 0.64 MB and 0.15 MB (medians of 8 runs).

With no bytecode cached, every ``bill`` and ``analyze`` process compiles
each of these modules, and a module's compile peaks in proportion to its
size. So ``TraceBilling`` and its integer grid have their own module,
``trace_billing.py``: kept in ``engine.py`` (507 lines, not 282), they
raised the peak RSS of ``bill --records`` by 0.18 MB and of ``analyze`` by
0.09 MB (medians of 11 runs), while in series of 11 or 15 runs the split
moved those peaks by -0.04 to 0.00 MB and by -0.06 to +0.07 MB.
One more module has a cost of its own: one holding a single assignment
raised ``analyze``'s peak by 0.10 to 0.15 MB, with bytecode cached or not.
With bytecode cached no compile is saved, and the split raised that peak
by 0.13 to 0.16 MB, and the peak of ``bill --records`` by 0.02 to 0.08 MB.
"""

from faascost.billing.engine import (
    billable_time,
    compute_cost,
    fee_equivalent_walltime,
    normalize_allocation,
)
from faascost.billing.model import (
    AllocResourceSpec,
    BillingError,
    CostBreakdown,
    CpuProportionalToMemory,
    FixedCombos,
    IndependentKnobs,
    MissingPriceError,
    PlatformBillingConfig,
    RatioConstrained,
    ResourceAllocation,
    UsageResourceSpec,
)
from faascost.billing.platforms import (
    bundled_platform_names,
    load_platform_config,
    resolve_platform,
    resolve_platform_path,
)
from faascost.billing.trace_billing import TraceBilling

__all__ = [
    "AllocResourceSpec",
    "BillingError",
    "CostBreakdown",
    "CpuProportionalToMemory",
    "FixedCombos",
    "IndependentKnobs",
    "MissingPriceError",
    "PlatformBillingConfig",
    "RatioConstrained",
    "ResourceAllocation",
    "TraceBilling",
    "UsageResourceSpec",
    "billable_time",
    "bundled_platform_names",
    "compute_cost",
    "fee_equivalent_walltime",
    "load_platform_config",
    "normalize_allocation",
    "resolve_platform",
    "resolve_platform_path",
]
