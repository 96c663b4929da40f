"""Invocation-trace ingestion and billing analytics.

Each name below is imported from its submodule on first read (PEP 562), so
``from faascost.traces import InvocationRecord`` loads the records module
and not the analyses, the sketch or the synthetic generator.
"""

import importlib

#: Each public name and the submodule that defines it.
_SUBMODULES = {
    "ColdStartDiff": "analysis",
    "ColdStartReport": "analysis",
    "CorrelationResult": "analysis",
    "InflationReport": "analysis",
    "RoundingPolicy": "analysis",
    "RoundingUpStats": "analysis",
    "cold_start_differential": "analysis",
    "inflation_analysis": "analysis",
    "rounding_up_stats": "analysis",
    "utilization_correlation": "analysis",
    "IngestStats": "ingest",
    "ingest_trace": "ingest",
    "InvocationRecord": "records",
    "SchemaMap": "records",
    "default_schema_map": "records",
    "QuantileSketch": "sketch",
    "generate_synthetic_trace": "synthetic",
}

__all__ = sorted(_SUBMODULES)


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SUBMODULES[name]}")
    value = globals()[name] = getattr(module, name)
    return value
