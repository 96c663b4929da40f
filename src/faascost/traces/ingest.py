"""Streaming CSV ingestion for invocation traces.

Reads plain or gzip-compressed CSV, from a file or a pipe, binds columns
through a SchemaMap, normalizes units, and yields InvocationRecord objects
one at a time so multi-gigabyte traces never need to fit in memory.
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


class _Sniffed(io.RawIOBase):
    """``raw`` with ``head``, the bytes already read from it, put back in front.

    The format is told from the first bytes without seeking, so a pipe reads
    like a file, and the stream is still read a buffer at a time.
    """

    def __init__(self, head: bytes, raw: IO[bytes]) -> None:
        self._head = head
        self._raw = raw

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = self._head or self._raw.read(len(buffer))
        n = min(len(data), len(buffer))
        buffer[:n] = data[:n]
        self._head = data[n:]
        return n


@contextlib.contextmanager
def _open_source(source: Union[str, Path, IO[bytes]]) -> Iterator[IO[str]]:
    """The source as text; a file opened here is closed on exit."""
    with contextlib.ExitStack() as opened:
        if isinstance(source, (str, Path)):
            raw: IO[bytes] = opened.enter_context(open(source, "rb"))
        else:
            raw = source
        head = raw.read(2)
        raw = _Sniffed(head, raw)
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
    exclusion for requests that never ran. Equal allocation pairs, equal
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
            # Each distinct (vCPUs, MB) pair, keyed by itself: rows share its floats.
            allocs: Dict[Tuple[float, float], Tuple[float, float]] = {}
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
                    pooled = allocs.get((vcpus, mem_mb))
                    if pooled is not None:
                        vcpus, mem_mb = pooled
                    elif 0 < vcpus < MIN_ALLOCATION or 0 < mem_mb < MIN_ALLOCATION:
                        raise ValueError("positive allocation below MIN_ALLOCATION")
                    record = InvocationRecord(
                        function_id, instance, arrival, exec_ms, init_ms, cold, vcpus, mem_mb,
                        cpu_avg, mem_usage,
                    )
                    if pooled is None:  # pooled once the record has checked it
                        pooled = (vcpus, mem_mb)
                        allocs[pooled] = pooled
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
