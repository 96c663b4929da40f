"""CSV ingestion: schema binding, units, gzip, malformed-row policy, and the
size and lifetime of what it holds."""

import contextlib
import gc
import gzip
import io
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import pytest

from faascost.traces import (
    IngestStats,
    InvocationRecord,
    SchemaMap,
    default_schema_map,
    generate_synthetic_trace,
    ingest_trace,
)

CANONICAL_HEADER = (
    "function_id,instance_id,arrival_ts_ms,exec_duration_ms,init_duration_ms,"
    "is_cold_start,alloc_vcpus,alloc_memory_mb,cpu_usage_avg_vcpus,mem_usage_mb"
)


def canonical_csv(rows):
    return (CANONICAL_HEADER + "\n" + "\n".join(rows) + "\n").encode()


def test_parses_canonical_rows(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(
        canonical_csv(
            [
                "fa,i1,0.0,100.5,250.0,true,1.0,1769.0,0.5,800.0",
                "fa,i1,1000.0,20.25,0,false,1.0,1769.0,0.25,640.0",
            ]
        )
    )
    stats = IngestStats()
    recs = list(ingest_trace(p, stats=stats))
    assert stats.rows_read == 2
    assert len(recs) == 2
    assert stats.malformed_skipped == 0
    first = recs[0]
    assert first.function_id == "fa"
    assert first.instance_id == "i1"
    assert first.exec_duration_ms == 100.5
    assert first.init_duration_ms == 250.0
    assert first.is_cold_start is True
    assert first.alloc_vcpus == 1.0
    assert first.alloc_memory_mb == 1769.0
    assert first.cpu_usage_avg_vcpus == 0.5
    assert first.mem_usage_mb == 800.0
    assert recs[1].is_cold_start is False


def test_unit_conversion_and_renamed_columns(tmp_path):
    # durations in microseconds, timestamps in seconds, memory in KB
    p = tmp_path / "t.csv"
    p.write_bytes(
        b"fn,ts,dur,cores,mem_limit,cpu,mem\n"
        b"f1,2.5,1500,2.0,1048576,1.0,524288\n"
    )
    sm = SchemaMap(
        columns={
            "function_id": "fn",
            "arrival_ts": "ts",
            "exec_duration": "dur",
            "alloc_vcpus": "cores",
            "alloc_memory_mb": "mem_limit",
            "cpu_usage_avg_vcpus": "cpu",
            "mem_usage": "mem",
        },
        duration_unit="us",
        timestamp_unit="s",
        memory_unit="kb",
    )
    rec = next(ingest_trace(p, sm))
    assert rec.exec_duration_ms == pytest.approx(1.5)
    assert rec.arrival_ts_ms == pytest.approx(2500.0)
    assert rec.alloc_memory_mb == pytest.approx(1024.0)
    assert rec.mem_usage_mb == pytest.approx(512.0)
    # unbound optional columns fall back
    assert rec.instance_id == ""
    assert rec.init_duration_ms == 0.0
    assert rec.is_cold_start is False


def test_cold_start_inferred_from_init_when_unbound(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(
        b"function_id,arrival_ts_ms,exec_duration_ms,init_duration_ms,"
        b"alloc_vcpus,alloc_memory_mb,cpu_usage_avg_vcpus,mem_usage_mb\n"
        b"f1,0,10,55.0,1,128,0.5,64\n"
        b"f1,1,10,0,1,128,0.5,64\n"
    )
    sm = SchemaMap(
        columns={
            "function_id": "function_id",
            "arrival_ts": "arrival_ts_ms",
            "exec_duration": "exec_duration_ms",
            "init_duration": "init_duration_ms",
            "alloc_vcpus": "alloc_vcpus",
            "alloc_memory_mb": "alloc_memory_mb",
            "cpu_usage_avg_vcpus": "cpu_usage_avg_vcpus",
            "mem_usage": "mem_usage_mb",
        }
    )
    recs = list(ingest_trace(p, sm))
    assert recs[0].is_cold_start is True
    assert recs[1].is_cold_start is False


def test_gzip_transparent(tmp_path):
    payload = canonical_csv(["fa,i1,0,10,0,false,1,128,0.5,64"])
    p = tmp_path / "t.csv.gz"
    p.write_bytes(gzip.compress(payload))
    recs = list(ingest_trace(p))
    assert len(recs) == 1
    assert recs[0].exec_duration_ms == 10.0


def test_reads_from_binary_file_object():
    payload = canonical_csv(["fa,i1,0,10,0,false,1,128,0.5,64"])
    recs = list(ingest_trace(io.BytesIO(payload)))
    assert len(recs) == 1


def _feed(write_fd, data):
    # A closed read end ends the writer with BrokenPipeError, not a hang.
    with contextlib.suppress(BrokenPipeError), os.fdopen(write_fd, "wb") as pipe:
        pipe.write(data)


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_reads_from_a_pipe(compress):
    # A pipe cannot seek: the format is told from its first two bytes, and
    # the rest is read as it comes, past the size of the pipe's buffer.
    payload = canonical_csv([f"fa,i{i},{i},{i % 97}.5,0,false,1,128,0.5,{i}"
                             for i in range(4000)])
    want = list(ingest_trace(io.BytesIO(payload)))
    read_fd, write_fd = os.pipe()
    writer = threading.Thread(
        target=_feed, args=(write_fd, gzip.compress(payload) if compress else payload)
    )
    writer.start()
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            stats = IngestStats()
            assert list(ingest_trace(pipe, stats=stats)) == want
    finally:
        writer.join()
    assert (stats.rows_read, len(want)) == (4000, 4000)


def test_ingest_imports_no_billing(tmp_path):
    # A trace row is measured data; the billing engine is loaded only by
    # whatever bills it.
    path = tmp_path / "t.csv"
    path.write_bytes(canonical_csv(["fa,i1,0,10,0,false,1,128,0.5,64"]))
    code = (
        "import sys\n"
        "from faascost.traces import ingest_trace\n"
        f"assert len(list(ingest_trace({str(path)!r}))) == 1\n"
        "print(sorted(m for m in sys.modules if m.startswith('faascost.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    loaded = result.stdout.strip()
    assert "faascost.traces.ingest" in loaded and "faascost.billing" not in loaded


def test_malformed_rows_skipped_and_counted(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(
        canonical_csv(
            [
                "fa,i1,0,10,0,false,1,128,0.5,64",
                "fa,i1,0,not_a_number,0,false,1,128,0.5,64",
                "fa,i1,0,-5,0,false,1,128,0.5,64",
                "fa,i1,0,10,0,maybe,1,128,0.5,64",
                "fa,i1,0,10,0,false,1,128,0.5,64",
            ]
        )
    )
    stats = IngestStats()
    recs = list(ingest_trace(p, stats=stats))
    assert len(recs) == 2
    assert stats.rows_read == 5
    assert stats.malformed_skipped == 3


@pytest.mark.parametrize("column", [3, 4, 2, 6, 7, 8, 9])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_cells_skipped_and_counted(column, value):
    bad = "fa,i1,0,10,0,false,1,128,0.5,64".split(",")
    bad[column] = value
    payload = canonical_csv(["fa,i1,0,10,0,false,1,128,0.5,64", ",".join(bad)])
    stats = IngestStats()
    recs = list(ingest_trace(io.BytesIO(payload), stats=stats))
    assert len(recs) == 1
    assert stats.malformed_skipped == 1


@pytest.mark.parametrize(
    "column, value",
    [(c, "1e250") for c in (3, 4, 6, 7, 8, 9)] + [(c, "1e-300") for c in (6, 7)],
)
def test_out_of_range_cells_skipped_and_counted(column, value):
    # Billed amounts of 2**53 or more, and positive allocations below
    # MIN_ALLOCATION, would overflow the decimal and float arithmetic.
    bad = "fa,i1,0,10,0,false,1,128,0.5,64".split(",")
    bad[column] = value
    payload = canonical_csv(["fa,i1,0,10,0,false,1,128,0.5,64", ",".join(bad)])
    stats = IngestStats()
    recs = list(ingest_trace(io.BytesIO(payload), stats=stats))
    assert len(recs) == 1
    assert stats.malformed_skipped == 1


def test_byte_order_mark_is_dropped():
    payload = canonical_csv(
        ["fa,i1,0,10,0,false,1,128,0.5,64", "fb,i2,1,20,0,false,0.5,256,0.2,32"]
    )
    plain = list(ingest_trace(io.BytesIO(payload)))
    assert len(plain) == 2
    for source in (b"\xef\xbb\xbf" + payload, gzip.compress(b"\xef\xbb\xbf" + payload)):
        assert list(ingest_trace(io.BytesIO(source))) == plain


def test_records_share_one_allocation_per_pair():
    payload = canonical_csv(
        [
            "fa,i1,0,10,0,false,1,128,0.5,64",
            "fb,i2,1,20,0,false,1.0,128,0.2,32",
            "fc,i3,2,30,0,false,0.5,128,0.2,32",
        ]
    )
    a, b, c = ingest_trace(io.BytesIO(payload))
    assert (a.alloc_vcpus, a.alloc_memory_mb) == (1.0, 128.0)
    assert a.alloc_vcpus is b.alloc_vcpus and a.alloc_memory_mb is b.alloc_memory_mb
    assert c.alloc_vcpus is not a.alloc_vcpus


def test_zero_cpu_filter(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(
        canonical_csv(
            [
                "fa,i1,0,10,0,false,1,128,0.0,64",
                "fa,i1,0,10,0,false,1,128,0.5,64",
            ]
        )
    )
    stats = IngestStats()
    recs = list(ingest_trace(p, drop_zero_cpu=True, stats=stats))
    assert len(recs) == 1
    assert stats.zero_cpu_filtered == 1
    stats2 = IngestStats()
    assert len(list(ingest_trace(p, stats=stats2))) == 2
    assert stats2.zero_cpu_filtered == 0


def test_missing_required_column_raises(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"function_id,arrival_ts_ms\nf1,0\n")
    with pytest.raises(ValueError, match="required column"):
        list(ingest_trace(p))


def test_unknown_unit_rejected_at_schema_construction():
    with pytest.raises(ValueError, match="unknown unit"):
        SchemaMap(columns=dict(default_schema_map().columns), duration_unit="min")


def test_empty_file_raises(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"")
    with pytest.raises(ValueError, match="no header"):
        list(ingest_trace(p))


def test_short_long_and_blank_lines():
    payload = canonical_csv(
        [
            "fa,i1,0,10,0,false,1,128,0.5,64",
            "fa,i1,0,10,0,false,1,128,0.5",  # short: no mem_usage_mb cell
            "",  # blank: not a row
            "fa,i1,0,10,0,false,1,128,0.5,64,extra,cells",  # long: extras ignored
        ]
    )
    stats = IngestStats()
    recs = list(ingest_trace(io.BytesIO(payload), stats=stats))
    assert len(recs) == 2
    assert recs[1].mem_usage_mb == 64.0
    assert stats.rows_read == 3
    assert stats.malformed_skipped == 1


def test_repeated_column_binds_to_its_last_occurrence():
    payload = (CANONICAL_HEADER + ",exec_duration_ms\n"
               + "fa,i1,0,10,0,false,1,128,0.5,64,20\n").encode()
    (rec,) = ingest_trace(io.BytesIO(payload))
    assert rec.exec_duration_ms == 20.0


def test_truncated_gzip_raises_value_error(tmp_path):
    payload = canonical_csv([f"fa,i1,{i},{i % 97}.5,0,false,1,128,0.5,{i}" for i in range(2000)])
    compressed = gzip.compress(payload)
    p = tmp_path / "t.csv.gz"
    p.write_bytes(compressed[: len(compressed) // 2])
    with pytest.raises(ValueError, match=r"t\.csv\.gz: truncated or corrupt gzip after \d+ rows"):
        list(ingest_trace(p))


# ------------------------------------------------------------ open files


def _gzip_rows(tmp_path):
    p = tmp_path / "t.csv.gz"
    rows = [f"fa,i1,{i},{i % 97}.5,0,false,1,128,0.5,{i}" for i in range(2000)]
    p.write_bytes(gzip.compress(canonical_csv(rows)))
    return p


def _read_all(p):
    assert len(list(ingest_trace(p))) == 2000


def _close_early(p):
    records = ingest_trace(p)
    next(records)
    records.close()


def _truncated(p):
    p.write_bytes(p.read_bytes()[: p.stat().st_size // 2])
    with pytest.raises(ValueError, match="truncated or corrupt gzip"):
        list(ingest_trace(p))


@pytest.mark.parametrize("case", [_read_all, _close_early, _truncated])
def test_opened_file_is_closed(case, tmp_path):
    # An unclosed file warns when it is collected, inside its finalizer,
    # where an error can only reach sys.unraisablehook.
    unraisable = []
    hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            case(_gzip_rows(tmp_path))
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert [repr(u.exc_value) for u in unraisable] == []


# ------------------------------------------------------------ lean records


def _record(**changes):
    fields = dict(
        function_id="fa", instance_id="i1", arrival_ts_ms=0.0, exec_duration_ms=10.0,
        init_duration_ms=0.0, is_cold_start=False, alloc_vcpus=1.0, alloc_memory_mb=128.0,
        cpu_usage_avg_vcpus=0.5, mem_usage_mb=64.0,
    )
    return InvocationRecord(**{**fields, **changes})


def test_record_is_slotted_and_replace_makes_a_checked_copy():
    record = _record()
    assert not hasattr(record, "__dict__")
    longer = record._replace(exec_duration_ms=20.0)
    assert (longer.exec_duration_ms, record.exec_duration_ms) == (20.0, 10.0)
    assert longer._replace(exec_duration_ms=10.0) == record
    with pytest.raises(ValueError, match="durations"):
        record._replace(exec_duration_ms=-1.0)


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]
_DURATIONS = r"durations must be >= 0 and below 2\*\*53"
_USAGE = r"usage amounts must be >= 0 and below 2\*\*53"
_ALLOCATION = r"allocation amounts must be >= 0 and below 2\*\*53"


@pytest.mark.parametrize(
    "field, value, message",
    [("arrival_ts_ms", v, "arrival time must be finite") for v in _NON_FINITE]
    + [
        (field, value, message)
        for fields, message in (
            (("exec_duration_ms", "init_duration_ms"), _DURATIONS),
            (("cpu_usage_avg_vcpus", "mem_usage_mb"), _USAGE),
            (("alloc_vcpus", "alloc_memory_mb"), _ALLOCATION),
        )
        for field in fields
        for value in _NON_FINITE + [-1.0, 2.0**53]
    ],
)
def test_record_rejects_out_of_range_values(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _record(**{field: value})


def test_function_ids_are_pooled_and_instance_ids_are_not():
    payload = canonical_csv(
        [
            "fn-a,inst-1,0,10,0,false,1,128,0.5,64",
            "fn-a,inst-1,1,20,0,false,1,128,0.2,32",
            "fn-b,inst-2,2,30,0,false,1,128,0.2,32",
        ]
    )
    a, b, c = ingest_trace(io.BytesIO(payload))
    assert a.function_id is b.function_id
    assert a.instance_id == b.instance_id and a.instance_id is not b.instance_id
    assert c.function_id == "fn-b"


def test_zero_init_durations_share_one_float_and_negative_zero_keeps_its_sign():
    payload = canonical_csv(
        [
            "fa,i1,0,10,0.000000,false,1,128,0.5,64",
            "fa,i1,1,20,0,false,1,128,0.2,32",
            "fa,i2,2,30,,false,1,128,0.2,32",
            "fa,i3,3,40,-0.000000,false,1,128,0.2,32",
            "fa,i4,4,50,12.5,true,1,128,0.2,32",
        ]
    )
    a, b, c, negative, cold = ingest_trace(io.BytesIO(payload))
    assert a.init_duration_ms is b.init_duration_ms is c.init_duration_ms
    assert math.copysign(1.0, a.init_duration_ms) == 1.0
    assert negative.init_duration_ms == 0.0
    assert math.copysign(1.0, negative.init_duration_ms) == -1.0
    assert cold.init_duration_ms == 12.5


def test_held_warm_records_are_smaller():
    # A warm row's +0.0 init duration is one shared float, not 24 B a record.
    rows = [
        f"fn-{i % 50},inst-{i:06d},{i}.5,{10 + i % 90}.25,0.000000,false,1,128,0.{i % 9 + 1},"
        f"{i % 60 + 1}.5"
        for i in range(4000)
    ]
    source = io.BytesIO(canonical_csv(rows))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = list(ingest_trace(source))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == 4000
    # 293 B a record here; a float of its own per init duration adds 24 B.
    assert held / len(records) <= 304


def test_held_records_stay_small(tmp_path):
    # A slotted record with pooled function ids and shared allocations holds
    # about 300 B; a frozen record with a fresh id string per row held 400 B.
    path = tmp_path / "trace.csv"
    generate_synthetic_trace(path, n_records=2000, seed=7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = list(ingest_trace(path))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == 2000
    assert held / len(records) <= 320


# Ingest looks up the common cells before it strips or parses them: the
# canonical booleans, a function id seen before, and the +0.0 init spellings.
# Every other cell takes the general path and reads as it always did.


@pytest.mark.parametrize(
    "cell, cold",
    [(" TRUE ", True), ("yes", True), ("T", True), ("0", False), ("", False),
     ("true", True), ("False", False)],
)
def test_boolean_cells_off_the_lookup_parse_as_before(cell, cold):
    payload = canonical_csv([f"fa,i1,0,10,0,{cell},1,128,0.5,64"])
    (record,) = ingest_trace(io.BytesIO(payload))
    assert record.is_cold_start is cold


def test_an_unparseable_boolean_is_counted():
    payload = canonical_csv(["fa,i1,0,10,0,maybe,1,128,0.5,64",
                             "fa,i1,1,10,0,true,1,128,0.5,64"])
    stats = IngestStats()
    (record,) = ingest_trace(io.BytesIO(payload), stats=stats)
    assert record.arrival_ts_ms == 1.0
    assert (stats.rows_read, stats.malformed_skipped) == (2, 1)


def test_padded_function_ids_pool_with_the_bare_one():
    payload = canonical_csv([f"{fid},i1,0,10,0,false,1,128,0.5,64"
                             for fid in (" f001", "f001", "f001 ", " f001", "f002")])
    records = list(ingest_trace(io.BytesIO(payload)))
    assert [r.function_id for r in records] == ["f001"] * 4 + ["f002"]
    assert all(r.function_id is records[0].function_id for r in records[:4])


@pytest.mark.parametrize("unit", ["ms", "s"])
def test_init_cells_off_the_lookup_parse_as_before(unit):
    cells = ["0.000000", "  ", "-0.0", "1e-3", " 0 ", "", "0"]
    payload = canonical_csv([f"fa,i1,0,10,{cell},false,1,128,0.5,64" for cell in cells])
    schema = default_schema_map()._replace(duration_unit=unit)
    zero, blank, negative, small, padded, empty, bare = ingest_trace(
        io.BytesIO(payload), schema
    )
    shared = zero.init_duration_ms
    assert shared == 0.0 and math.copysign(1.0, shared) == 1.0
    for record in (blank, padded, empty, bare):
        assert record.init_duration_ms is shared
    assert negative.init_duration_ms == 0.0
    assert math.copysign(1.0, negative.init_duration_ms) == -1.0
    assert negative.init_duration_ms is not shared
    assert small.init_duration_ms == (1e-3 if unit == "ms" else 1e-3 * 1000.0)


def test_padded_numeric_cells_read_as_bare_ones():
    bare = "fa,i1,0.5,10.25,2.5,true,0.5,128,0.25,64"
    padded = "fa,i1, 0.5 ,10.25 , 2.5, true ,0.5 , 128, 0.25 ,64 "
    plain_stats, padded_stats = IngestStats(), IngestStats()
    plain = list(ingest_trace(io.BytesIO(canonical_csv([bare])), stats=plain_stats))
    spaced = list(ingest_trace(io.BytesIO(canonical_csv([padded])), stats=padded_stats))
    assert spaced == plain and len(plain) == 1
    assert spaced[0].init_duration_ms == 2.5 and spaced[0].is_cold_start is True
    assert ([getattr(padded_stats, c) for c in IngestStats.__slots__]
            == [getattr(plain_stats, c) for c in IngestStats.__slots__])
