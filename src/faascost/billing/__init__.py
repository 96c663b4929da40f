"""Generalized pay-per-use billing: cost engine and platform configs.

Unlike the other layers, this package imports its three modules at once,
because every command that touches billing runs all three. Bound on first
read instead, they and PyYAML were compiled only after ``bill --records``
or ``analyze`` had opened its trace, and with no bytecode cached the peak
RSS of those commands rose by 0.64 MB and 0.15 MB (medians of 8 runs).
"""

from faascost.billing.engine import (
    TraceBilling,
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
    UnpricedResourceError,
    UsageResourceSpec,
    allocation,
)
from faascost.billing.platforms import (
    bundled_platform_names,
    load_platform_config,
    resolve_platform,
    resolve_platform_path,
)

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
    "UnpricedResourceError",
    "UsageResourceSpec",
    "allocation",
    "billable_time",
    "bundled_platform_names",
    "compute_cost",
    "fee_equivalent_walltime",
    "load_platform_config",
    "normalize_allocation",
    "resolve_platform",
    "resolve_platform_path",
]
