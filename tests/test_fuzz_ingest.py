"""Hostile trace bytes through ingest and every consumer of its records.

A trace is built from a canonical, shuffled, duplicated or short header, an
optional byte order mark, LF or CRLF line endings, cells that are numbers,
garbage, non-finite, huge, tiny, negative or empty, optionally gzipped and
optionally truncated. Ingest may reject it only with ValueError and must
account for every row it reads; the analyses and ``bill --records`` may
reject the records it yields only with ValueError, and every number they
report must be finite.
"""

import gzip
import io
import math
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from faascost.billing.platforms import resolve_platform
from faascost.commands import bill
from faascost.traces import (
    IngestStats,
    RoundingPolicy,
    cold_start_differential,
    inflation_analysis,
    ingest_trace,
    rounding_up_stats,
    utilization_correlation,
)

COLUMNS = (
    "function_id", "instance_id", "arrival_ts_ms", "exec_duration_ms",
    "init_duration_ms", "is_cold_start", "alloc_vcpus", "alloc_memory_mb",
    "cpu_usage_avg_vcpus", "mem_usage_mb",
)
CONFIGS = [resolve_platform("aws_lambda"), resolve_platform("gcp_cloudrun_functions")]
# Too fine for integer step keys: every record takes the Decimal path.
CONFIGS.append(CONFIGS[0]._replace(time_granularity_ms=Decimal("0.0000001")))
POLICIES = [RoundingPolicy("1ms", 1), RoundingPolicy("100ms_mem", 100, 50, 0.125)]
BILLED = ("billable_time_ms", "fee_usd", "alloc_usd", "usage_usd", "total_usd")

HOSTILE = st.sampled_from(
    ["abc", 'x"y', "nan", "-inf", "inf", "1e250", "1e-300", "-1", "-0.5", "", "1e308"]
)
NUMBER = st.one_of(
    st.integers(min_value=0, max_value=5000).map(str),
    st.floats(min_value=0, max_value=1e4, allow_nan=False).map(repr),
)
VALID = {
    "function_id": st.sampled_from(["fa", "fb", "fc"]),
    "instance_id": st.sampled_from(["i1", "i2", ""]),
    "is_cold_start": st.sampled_from(["true", "false", "1", "0", ""]),
}


@st.composite
def rows(draw, header):
    """A row of valid cells, up to two of them replaced by hostile ones."""
    row = [draw(VALID.get(column, NUMBER)) for column in header]
    for i in draw(st.lists(st.integers(0, len(header) - 1), max_size=2)):
        row[i] = draw(HOSTILE)
    return row


@st.composite
def traces(draw):
    header = list(COLUMNS)
    shape = draw(st.sampled_from(["canonical", "shuffled", "duplicated", "missing"]))
    if shape == "shuffled":
        header = draw(st.permutations(header))
    elif shape == "duplicated":
        header.append(draw(st.sampled_from(COLUMNS)))
    elif shape == "missing":
        header.remove(draw(st.sampled_from(COLUMNS)))
    body = draw(st.lists(rows(header), max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(",".join(row) for row in [header, *body]) + newline
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode()
    if draw(st.booleans()):
        data = gzip.compress(data)
    if draw(st.booleans()):
        data = data[: draw(st.integers(min_value=0, max_value=len(data)))]
    return data


def floats(value):
    """Every float in a report."""
    if isinstance(value, dict):
        for item in value.values():
            yield from floats(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from floats(item)
    elif isinstance(value, float):
        yield value


def consume(run):
    """``run()``'s result, or None when it rejects its input with ValueError."""
    try:
        return run()
    except ValueError:
        return None


@given(data=traces(), drop_zero_cpu=st.booleans(), normalize=st.booleans())
@settings(max_examples=80, deadline=None)
def test_hostile_traces_are_rejected_or_counted(data, drop_zero_cpu, normalize):
    stats = IngestStats()
    records = []

    def ingest():
        for record in ingest_trace(io.BytesIO(data), drop_zero_cpu=drop_zero_cpu,
                                   stats=stats):
            records.append(record)

    consume(ingest)
    assert stats.rows_read == (
        len(records) + stats.malformed_skipped + stats.zero_cpu_filtered
    )

    reports = [
        consume(lambda: utilization_correlation(records).as_dict()),
        consume(lambda: cold_start_differential(records).as_dict()),
        consume(lambda: [s.as_dict() for s in rounding_up_stats(records, POLICIES)]),
    ]
    for config in CONFIGS:
        for mapping in ("normalize", "direct"):
            reports.append(consume(
                lambda: inflation_analysis(records, config, mapping=mapping).as_dict()))
        bills = [dict(zip(bill._BILL_COLUMNS, row))
                 for row in consume(lambda: list(bill._bill_rows(records, config, normalize))) or []]
        assert all(Decimal(row[name]).is_finite() for row in bills for name in BILLED)
        reports.append(bills)
    assert all(math.isfinite(x) for x in floats(reports))
