"""Platform billing configs as human-editable YAML documents.

Prices drift, so configs ship as data, not code.  Numeric fields may be
written as quoted strings to keep exact decimal values (recommended for
prices); unquoted YAML numbers are converted via their shortest decimal
representation.  Fields whose public documentation gives no value are
``null`` and the engine raises when asked to use them.

Lookup order for ``resolve_platform(name)``:

1. an explicit directory passed by the caller,
2. the ``FAASCOST_CONFIG_DIR`` environment variable,
3. the bundled defaults under ``faascost/billing/data``.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path
from typing import List, Optional, Union

import yaml

from faascost.billing.model import (
    AllocResourceSpec,
    BillingError,
    CpuProportionalToMemory,
    FixedCombos,
    IndependentKnobs,
    KnobCoupling,
    PlatformBillingConfig,
    RatioConstrained,
    UsageResourceSpec,
)

CONFIG_DIR_ENV = "FAASCOST_CONFIG_DIR"


def _parse_coupling(raw: dict) -> KnobCoupling:
    kind = raw.get("kind")
    if kind == "independent":
        return IndependentKnobs()
    if kind == "cpu_proportional_to_memory":
        return CpuProportionalToMemory(raw["mem_per_vcpu_mb"])
    if kind == "fixed_combos":
        return FixedCombos(tuple((c["vcpu"], c["memory_mb"]) for c in raw["combos"]))
    if kind == "ratio_constrained":
        return RatioConstrained(
            raw["min_ratio"], raw["max_ratio"], raw["cpu_step"], raw["mem_step_mb"]
        )
    raise BillingError(f"unknown knob coupling kind: {kind!r}")


def parse_platform_config(doc: dict) -> PlatformBillingConfig:
    """Build a :class:`PlatformBillingConfig` from a parsed YAML document."""
    try:
        time_doc = doc["billable_time"]
        alloc = tuple(
            AllocResourceSpec(
                resource=spec["resource"],
                granularity=spec["granularity"],
                unit_price_usd_per_unit_second=spec.get("unit_price_usd_per_unit_second"),
            )
            for spec in doc.get("alloc_resources") or ()
        )
        usage = tuple(
            UsageResourceSpec(
                resource=spec["resource"],
                granularity=spec["granularity"],
                unit_price_usd_per_unit=spec.get("unit_price_usd_per_unit"),
                billing_basis=spec.get("billing_basis", "absolute"),
            )
            for spec in doc.get("usage_resources") or ()
        )
        return PlatformBillingConfig(
            name=doc["name"],
            billable_time_kind=time_doc["kind"],
            time_granularity_ms=time_doc.get("granularity_ms"),
            time_min_cutoff_ms=time_doc.get("min_cutoff_ms", 0),
            alloc_resources=alloc,
            usage_resources=usage,
            invocation_fee_usd=doc.get("invocation_fee_usd"),
            knob_coupling=_parse_coupling(doc.get("knob_coupling") or {"kind": "independent"}),
            notes=doc.get("notes", ""),
        )
    except KeyError as exc:
        raise BillingError(f"platform config missing field: {exc}") from exc


def load_platform_config(path: Union[str, Path]) -> PlatformBillingConfig:
    with open(path, "rb") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise BillingError(f"{path}: expected a mapping at top level")
    return parse_platform_config(doc)


def _bundled_dir() -> Path:
    return Path(resources.files("faascost.billing").joinpath("data"))


def bundled_platform_names() -> List[str]:
    return sorted(p.stem for p in _bundled_dir().glob("*.yaml"))


def resolve_platform_path(
    name: str, config_dir: Optional[Union[str, Path]] = None
) -> Path:
    """Locate the config file for ``name`` per the lookup order."""
    candidate = Path(name)
    if candidate.suffix in (".yaml", ".yml") and candidate.exists():
        return candidate
    search: List[Path] = []
    if config_dir is not None:
        search.append(Path(config_dir))
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir:
        search.append(Path(env_dir))
    search.append(_bundled_dir())
    for directory in search:
        path = directory / f"{name}.yaml"
        if path.exists():
            return path
    raise BillingError(
        f"no platform config named {name!r} in "
        + ", ".join(str(d) for d in search)
    )


def resolve_platform(
    name: str, config_dir: Optional[Union[str, Path]] = None
) -> PlatformBillingConfig:
    """Find config ``name`` (or a direct file path) per the lookup order."""
    return load_platform_config(resolve_platform_path(name, config_dir))
