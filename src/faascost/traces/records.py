"""Canonical invocation record and the schema map binding it to trace columns.

The canonical schema is this toolkit's own; real traces bind their column
names and units through :class:`SchemaMap` so the analytics stay
format-agnostic. Both are ``typing.NamedTuple`` classes checked when made
(:func:`faascost.checked.checked`): a record is an immutable tuple of its
ten fields, and ``_replace`` makes a checked changed copy.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple

from faascost.checked import checked
from faascost.money import MAX_AMOUNT

# Multipliers into canonical units (ms for durations, MB for memory).
DURATION_UNITS = {"us": 0.001, "ms": 1.0, "s": 1000.0}
MEMORY_UNITS = {"bytes": 1.0 / (1024.0 * 1024.0), "kb": 1.0 / 1024.0, "mb": 1.0, "gb": 1024.0}


@checked
class InvocationRecord(NamedTuple):
    """One request from a trace.

    ``alloc_vcpus`` and ``alloc_memory_mb`` are the allocation as the trace
    measured it; :class:`faascost.billing.trace_billing.TraceBilling` turns it into
    the exact allocation a platform grants and bills.
    ``cpu_usage_avg_vcpus`` is the mean vCPUs consumed over the execution;
    ``mem_usage_mb`` follows whatever convention (peak or mean) the trace
    declares in its schema map.  The arrival time must be finite; durations,
    allocations and usage amounts must lie in ``[0, MAX_AMOUNT)``.
    """

    function_id: str
    instance_id: str
    arrival_ts_ms: float
    exec_duration_ms: float
    init_duration_ms: float
    is_cold_start: bool
    alloc_vcpus: float
    alloc_memory_mb: float
    cpu_usage_avg_vcpus: float
    mem_usage_mb: float

    def _check(self) -> None:
        # NaN fails every comparison, so each check also rejects it.
        if not math.isfinite(self.arrival_ts_ms):
            raise ValueError("arrival time must be finite")
        if not (0 <= self.exec_duration_ms < MAX_AMOUNT
                and 0 <= self.init_duration_ms < MAX_AMOUNT):
            raise ValueError("durations must be >= 0 and below 2**53")
        if not (0 <= self.alloc_vcpus < MAX_AMOUNT and 0 <= self.alloc_memory_mb < MAX_AMOUNT):
            raise ValueError("allocation amounts must be >= 0 and below 2**53")
        if not (0 <= self.cpu_usage_avg_vcpus < MAX_AMOUNT
                and 0 <= self.mem_usage_mb < MAX_AMOUNT):
            raise ValueError("usage amounts must be >= 0 and below 2**53")


#: Canonical fields that must be bound by every schema map.
REQUIRED_FIELDS = (
    "function_id",
    "arrival_ts",
    "exec_duration",
    "alloc_vcpus",
    "alloc_memory_mb",
    "cpu_usage_avg_vcpus",
    "mem_usage",
)

#: Optional fields; ingestion falls back to defaults when unbound.
OPTIONAL_FIELDS = ("instance_id", "init_duration", "is_cold_start")


@checked
class SchemaMap(NamedTuple):
    """Binds canonical record fields to trace column names, with units.

    ``columns`` maps canonical field name -> trace column name. Units
    declare what the trace stores; values are converted to canonical units
    (ms, MB) during ingestion.
    """

    columns: Dict[str, str]
    duration_unit: str = "ms"
    timestamp_unit: str = "ms"
    memory_unit: str = "mb"
    delimiter: str = ","

    def _check(self) -> None:
        missing = [f for f in REQUIRED_FIELDS if f not in self.columns]
        if missing:
            raise ValueError(f"schema map missing required fields: {missing}")
        unknown = [
            f for f in self.columns if f not in REQUIRED_FIELDS + OPTIONAL_FIELDS
        ]
        if unknown:
            raise ValueError(f"schema map binds unknown fields: {unknown}")
        for unit, table in (
            (self.duration_unit, DURATION_UNITS),
            (self.timestamp_unit, DURATION_UNITS),
            (self.memory_unit, MEMORY_UNITS),
        ):
            if unit not in table:
                raise ValueError(f"unknown unit: {unit!r}")


def default_schema_map() -> SchemaMap:
    """Schema map for traces written in the canonical column layout."""
    return SchemaMap(
        columns={
            "function_id": "function_id",
            "instance_id": "instance_id",
            "arrival_ts": "arrival_ts_ms",
            "exec_duration": "exec_duration_ms",
            "init_duration": "init_duration_ms",
            "is_cold_start": "is_cold_start",
            "alloc_vcpus": "alloc_vcpus",
            "alloc_memory_mb": "alloc_memory_mb",
            "cpu_usage_avg_vcpus": "cpu_usage_avg_vcpus",
            "mem_usage": "mem_usage_mb",
        }
    )
