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
from typing import List, Optional, Tuple, Union

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

_TOP_KEYS = ("name", "billable_time", "alloc_resources", "usage_resources",
             "invocation_fee_usd", "knob_coupling", "notes")
_COUPLINGS = {"independent": IndependentKnobs, "fixed_combos": FixedCombos,
              "cpu_proportional_to_memory": CpuProportionalToMemory,
              "ratio_constrained": RatioConstrained}


def _known(raw: dict, where: str, keys: Tuple[str, ...], required: Tuple[str, ...]) -> dict:
    """``raw``, a mapping that holds every key in ``required`` and none not in
    ``keys``: a misspelt key would otherwise read as absent."""
    if not isinstance(raw, dict):
        raise BillingError(f"expected a mapping {where}")
    unknown = [key for key in raw if key not in keys]
    if unknown:
        raise BillingError(f"unknown keys {where}: {unknown}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise BillingError(f"platform config missing field: {missing[0]!r}")
    return raw


def _specs(doc: dict, key: str, spec: type) -> tuple:
    """Spec list ``key`` as ``spec`` values: each entry names a resource and
    its granularity, and has no key that is not a field of ``spec``."""
    required = ("resource", "granularity")
    return tuple(spec(**_known(raw, f"in {key}[{i}]", spec._fields, required))
                 for i, raw in enumerate(doc.get(key) or ()))


def _parse_coupling(raw: dict) -> KnobCoupling:
    kind = raw.get("kind")
    cls = _COUPLINGS.get(kind)
    if cls is None:
        raise BillingError(f"unknown knob coupling kind: {kind!r}")
    _known(raw, f"in knob_coupling of kind {kind!r}", ("kind", *cls._fields), cls._fields)
    if cls is FixedCombos:
        pair = ("vcpu", "memory_mb")
        combos = [_known(c, f"in knob_coupling combos[{i}]", pair, pair)
                  for i, c in enumerate(raw["combos"])]
        return FixedCombos(tuple((c["vcpu"], c["memory_mb"]) for c in combos))
    return cls(*(raw[field] for field in cls._fields))


def parse_platform_config(doc: dict) -> PlatformBillingConfig:
    """Build a :class:`PlatformBillingConfig` from a parsed YAML document.

    A key the config does not define is rejected wherever it is.
    """
    try:
        _known(doc, "at top level", _TOP_KEYS, ("billable_time", "name"))
        time_doc = _known(doc["billable_time"], "in billable_time",
                          ("kind", "granularity_ms", "min_cutoff_ms"), ("kind",))
        return PlatformBillingConfig(
            name=doc["name"],
            billable_time_kind=time_doc["kind"],
            time_granularity_ms=time_doc.get("granularity_ms"),
            time_min_cutoff_ms=time_doc.get("min_cutoff_ms", 0),
            alloc_resources=_specs(doc, "alloc_resources", AllocResourceSpec),
            usage_resources=_specs(doc, "usage_resources", UsageResourceSpec),
            invocation_fee_usd=doc.get("invocation_fee_usd"),
            knob_coupling=_parse_coupling(doc.get("knob_coupling") or {"kind": "independent"}),
            notes=doc.get("notes", ""),
        )
    except (TypeError, AttributeError) as exc:
        raise BillingError(f"platform config field of the wrong type: {exc}") from exc


def yaml_problem(exc: yaml.YAMLError) -> str:
    """A YAML error on one line: what went wrong and where."""
    mark = getattr(exc, "problem_mark", None)
    problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
    if mark is None:
        return problem
    return f"{problem} at line {mark.line + 1}, column {mark.column + 1}"


def load_platform_config(path: Union[str, Path]) -> PlatformBillingConfig:
    with open(path, "rb") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise BillingError(f"{path}: not valid YAML: {yaml_problem(exc)}") from None
    if not isinstance(doc, dict):
        raise BillingError(f"{path}: expected a mapping at top level")
    try:
        return parse_platform_config(doc)
    except ValueError as exc:
        raise BillingError(f"{path}: {exc}") from exc


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
