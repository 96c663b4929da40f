"""Streaming CSV ingestion for invocation traces.

Reads plain or gzip-compressed CSV, binds columns through a SchemaMap,
normalizes units, and yields InvocationRecord objects one at a time so
multi-gigabyte traces never need to fit in memory.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Dict, Iterator, Optional, Tuple, Union

from .records import (
    DURATION_UNITS,
    MEMORY_UNITS,
    OPTIONAL_FIELDS,
    REQUIRED_FIELDS,
    InvocationRecord,
    SchemaMap,
)
from ..billing.model import ResourceAllocation, allocation

_GZIP_MAGIC = b"\x1f\x8b"
_TRUTHY = {"1", "true", "t", "yes", "y"}
_FALSY = {"0", "false", "f", "no", "n", ""}
#: The spellings looked up before ``_parse_bool`` is called.
_BOOLS = {"true": True, "false": False, "True": True, "False": False}
#: The smallest positive allocation, in vCPUs or MB, a row may name.
MIN_ALLOCATION = 1e-6
#: The init duration of every record whose init is +0.0: warm requests are
#: most rows of a trace, and one shared float saves each of them 24 B.
_ZERO = 0.0
#: Init cells that read as +0.0 in any duration unit, with no strip or parse.
_ZERO_CELLS = frozenset({"", "0", "0.0", "0.000000"})


@dataclass
class IngestStats:
    """Counters filled in while the record generator is consumed."""

    rows_read: int = 0
    records_yielded: int = 0
    malformed_skipped: int = 0
    zero_cpu_filtered: int = 0


@contextlib.contextmanager
def _open_source(source: Union[str, Path, IO[bytes]]) -> Iterator[IO[str]]:
    """The source as text; a file opened here is closed on exit."""
    with contextlib.ExitStack() as opened:
        if isinstance(source, (str, Path)):
            raw: IO[bytes] = opened.enter_context(open(source, "rb"))
        else:
            raw = source
        head = raw.read(2)
        if hasattr(raw, "seek"):
            raw.seek(0)
        else:  # pragma: no cover - non-seekable streams are not used in tests
            raw = io.BytesIO(head + raw.read())
        if head == _GZIP_MAGIC:
            # GzipFile closes itself, never the file object under it.
            raw = gzip.GzipFile(fileobj=raw)
        # utf-8-sig drops the byte order mark that spreadsheet exports write.
        yield opened.enter_context(io.TextIOWrapper(raw, encoding="utf-8-sig", newline=""))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise ValueError(f"unparseable boolean: {text!r}")


def ingest_trace(
    source: Union[str, Path, IO[bytes]],
    schema_map: Optional[SchemaMap] = None,
    *,
    drop_zero_cpu: bool = False,
    stats: Optional[IngestStats] = None,
) -> Iterator[InvocationRecord]:
    """Yield InvocationRecords from a CSV trace.

    Malformed rows are counted in ``stats.malformed_skipped`` and skipped:
    short or unparseable rows, NaN or infinite numbers, negative durations
    or usage, a duration, usage or allocation of 2**53 or more, and a
    positive allocation below ``MIN_ALLOCATION``. Cells past the header's
    width are ignored, and blank lines are not rows. A UTF-8 byte order
    mark before the header is dropped. A missing required column or an
    unknown unit raises immediately, and a truncated or corrupt gzip raises
    ValueError. With ``drop_zero_cpu`` set, rows whose average CPU usage is
    exactly zero are filtered out and counted, mirroring the metering
    exclusion for requests that never ran. Equal allocations, equal
    function ids and +0.0 init durations are shared; instance ids are not,
    so a streamed trace keeps no state that grows with its instances. A
    file opened here is closed when the generator finishes, fails or is
    closed.
    """
    if schema_map is None:
        from .records import default_schema_map

        schema_map = default_schema_map()
    if stats is None:
        stats = IngestStats()

    dur_factor = DURATION_UNITS[schema_map.duration_unit]
    ts_factor = DURATION_UNITS[schema_map.timestamp_unit]
    mem_factor = MEMORY_UNITS[schema_map.memory_unit]

    with _open_source(source) as text:
        try:
            reader = csv.reader(text, delimiter=schema_map.delimiter)
            header = next(reader, None)
            if header is None:
                raise ValueError("empty trace: no header row")
            # A repeated column name binds to its last occurrence.
            index = {name: i for i, name in enumerate(header)}
            for logical in REQUIRED_FIELDS:
                column = schema_map.column(logical)
                if column not in index:
                    raise ValueError(
                        f"required column {column!r} (for {logical}) not in header"
                    )
            for logical in OPTIONAL_FIELDS:
                column = schema_map.columns.get(logical)
                if column is not None and column not in index:
                    raise ValueError(
                        f"mapped column {column!r} (for {logical}) not in header"
                    )

            cols = {logical: index[column] for logical, column in schema_map.columns.items()}
            i_fn = cols["function_id"]
            i_arrival = cols["arrival_ts"]
            i_exec = cols["exec_duration"]
            i_vcpus = cols["alloc_vcpus"]
            i_mem = cols["alloc_memory_mb"]
            i_cpu = cols["cpu_usage_avg_vcpus"]
            i_mem_usage = cols["mem_usage"]
            i_instance = cols.get("instance_id")
            i_init = cols.get("init_duration")
            i_cold = cols.get("is_cold_start")
            allocs: Dict[Tuple[float, float], ResourceAllocation] = {}
            function_ids: Dict[str, str] = {}

            for row in reader:
                if not row:  # a blank line is not a row
                    continue
                stats.rows_read += 1
                try:
                    exec_ms = float(row[i_exec]) * dur_factor
                    arrival = float(row[i_arrival]) * ts_factor
                    vcpus = float(row[i_vcpus])
                    mem_mb = float(row[i_mem]) * mem_factor
                    cpu_avg = float(row[i_cpu])
                    mem_usage = float(row[i_mem_usage]) * mem_factor
                    init_ms = _ZERO
                    if i_init is not None:
                        cell = row[i_init]
                        if cell not in _ZERO_CELLS:
                            cell = cell.strip()
                            if cell:
                                init_ms = float(cell) * dur_factor
                                if init_ms == 0.0 and math.copysign(1.0, init_ms) > 0.0:
                                    init_ms = _ZERO
                    if i_cold is not None:
                        cell = row[i_cold]
                        cold = _BOOLS.get(cell)
                        if cold is None:
                            cold = _parse_bool(cell)
                    else:
                        cold = init_ms > 0.0
                    # Pooled by the raw cell, so a cell seen before is not stripped.
                    cell = row[i_fn]
                    function_id = function_ids.get(cell)
                    if function_id is None:
                        function_id = cell.strip()
                        function_id = function_ids.setdefault(function_id, function_id)
                        function_ids[cell] = function_id
                    instance = row[i_instance].strip() if i_instance is not None else ""
                    alloc = allocs.get((vcpus, mem_mb))
                    if alloc is None:
                        if 0 < vcpus < MIN_ALLOCATION or 0 < mem_mb < MIN_ALLOCATION:
                            raise ValueError("positive allocation below MIN_ALLOCATION")
                        alloc = allocs[vcpus, mem_mb] = allocation(vcpus=vcpus, memory_mb=mem_mb)
                    record = InvocationRecord(
                        function_id, instance, arrival, exec_ms, init_ms, cold, alloc,
                        cpu_avg, mem_usage,
                    )
                except (ValueError, IndexError):
                    stats.malformed_skipped += 1
                    continue
                if drop_zero_cpu and record.cpu_usage_avg_vcpus == 0.0:
                    stats.zero_cpu_filtered += 1
                    continue
                stats.records_yielded += 1
                yield record
        except (EOFError, zlib.error) as exc:
            name = getattr(source, "name", source)
            raise ValueError(
                f"{name}: truncated or corrupt gzip after {stats.rows_read} rows ({exc})"
            ) from None
