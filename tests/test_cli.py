"""End-to-end checks of the command line against the library."""

import argparse
import csv
import gzip
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import random
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from faascost.billing import (
    compute_cost,
    normalize_allocation,
    resolve_platform,
    resolve_platform_path,
)
from faascost.billing.model import ResourceAllocation
from faascost.cli import _digest, _write_json_array, build_parser, main
from faascost.money import dec, usd_string
from faascost.profiler import ProbeConfig, events_from_csv, replay_probe
from faascost.sched import BandwidthControlConfig, TaskSpec, closed_form_duration, simulate
from faascost.traces import (
    RoundingPolicy,
    default_schema_map,
    generate_synthetic_trace,
    ingest_trace,
    rounding_up_stats,
    utilization_correlation,
)

from genpairs import invoice_view
from oracle_invoice import reference_cost


@pytest.fixture(scope="module")
def trace_csv(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    generate_synthetic_trace(path, n_records=100, seed=7)
    return path


@pytest.fixture(scope="module")
def events_csv(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("events")
    assert main(["profile", "replay", "--t", "200", "--p", "20", "--q", "5",
                 "--out-dir", str(out)]) == 0
    return out / "events.csv"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------------ bill


def test_bill_single_alloc_charge_equals_fee(capsys):
    assert run("bill", "--platform", "aws_lambda", "--mem-mb", 128, "--exec-ms", 96) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["billable_time_ms"] == "96"
    assert doc["alloc_terms"]["memory_gb"]["usd"] == doc["fee_usd"]
    assert float(doc["fee_equivalent_walltime_ms"]) == pytest.approx(96.0, abs=0.5)


@pytest.mark.parametrize("flags", [[], ["--no-normalize"]], ids=["normalize", "no-normalize"])
def test_bill_single_alloc_bills_the_exact_allocation(flags, capsys):
    # 128.00000000000000001 MB reads as 128.0 in a float, one MB less billed.
    assert run("bill", "--platform", "aws_lambda", *flags, "--mem-mb", "128.00000000000000001",
               "--exec-ms", 96) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alloc_terms"]["memory_gb"]["billable_amount"] == "0.1259765625"  # 129 MB


def test_bill_zero_exec_total_is_fee(capsys):
    assert run("bill", "--platform", "aws_lambda", "--mem-mb", 128, "--exec-ms", 0) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_usd"] == doc["fee_usd"]
    assert all(t["usd"] == "0.000000000000" for t in doc["alloc_terms"].values())


def test_bill_batch_matches_library(tmp_path, trace_csv):
    out = tmp_path / "out"
    assert run("bill", "--platform", "aws_lambda", "--records", trace_csv,
               "--out-dir", out) == 0
    rows = read_rows(out / "bills.csv")
    assert len(rows) == 100

    config = resolve_platform("aws_lambda")
    for row, record in zip(rows, ingest_trace(trace_csv)):
        asked = ResourceAllocation(record.alloc_vcpus, record.alloc_memory_mb)
        breakdown = compute_cost(record, config, normalize_allocation(asked, config))
        assert row["function_id"] == record.function_id
        assert row["billable_time_ms"] == str(breakdown.billable_time_ms)
        assert row["total_usd"] == usd_string(breakdown.total_usd)
        assert row["fee_usd"] == usd_string(breakdown.fee_usd)


@pytest.mark.parametrize("normalize", [True, False], ids=["normalize", "no-normalize"])
def test_bill_records_normalizes_each_allocation_once(tmp_path, trace_csv, monkeypatch,
                                                      normalize):
    from faascost.billing import engine

    calls = []
    original = engine.normalize_allocation

    def counted(alloc, config):
        calls.append((alloc.vcpus, alloc.memory_mb))
        return original(alloc, config)

    monkeypatch.setattr(engine, "normalize_allocation", counted)
    flags = [] if normalize else ["--no-normalize"]
    assert run("bill", "--platform", "aws_lambda", "--records", trace_csv, *flags,
               "--out-dir", tmp_path) == 0
    allocs = {(dec(r.alloc_vcpus), dec(r.alloc_memory_mb)) for r in ingest_trace(trace_csv)}
    assert 1 < len(allocs) < 100
    if normalize:
        assert sorted(calls) == sorted(allocs)
    else:
        assert calls == []


@pytest.mark.parametrize("flags", [[], ["--no-normalize"]], ids=["normalize", "no-normalize"])
def test_bill_records_adds_large_terms_exactly(tmp_path, flags):
    # Allocation terms of more than 28 significant digits: summed in the
    # default context, alloc_usd would round below the exact charge. The
    # second row's key is priced in closed form from the first's allocation.
    trace = tmp_path / "big.csv"
    trace.write_text(
        "function_id,instance_id,arrival_ts_ms,exec_duration_ms,init_duration_ms,"
        "is_cold_start,alloc_vcpus,alloc_memory_mb,cpu_usage_avg_vcpus,mem_usage_mb\n"
        "f,i,0.0,76543455,0,false,0,6083302011230385,0,0\n"
        "f,i,1.0,76543456,0,false,0,6083302011230385,0,0\n"
    )
    assert run("bill", "--platform", "aws_lambda", "--records", trace, *flags,
               "--out-dir", tmp_path / "out") == 0
    rows = read_rows(tmp_path / "out" / "bills.csv")
    config = resolve_platform("aws_lambda")
    for row, record in zip(rows, ingest_trace(trace), strict=True):
        alloc = ResourceAllocation(record.alloc_vcpus, record.alloc_memory_mb)
        if not flags:
            alloc = normalize_allocation(alloc, config)
        want = reference_cost(invoice_view(record, alloc), config)
        assert [row["alloc_usd"]] == list(want["alloc_terms"].values())
        assert row["total_usd"] == want["total_usd"]
    assert rows[0]["alloc_usd"] == "7578741618195.474689536341"


def test_bill_unknown_platform_fails(capsys):
    assert run("bill", "--platform", "nope_cloud", "--exec-ms", 1) == 1
    assert "nope_cloud" in capsys.readouterr().err


@pytest.mark.parametrize("records", [False, True], ids=["single", "records"])
def test_bill_rejects_a_usage_resource_no_record_carries(records, tmp_path, trace_csv, capsys):
    # A trace record carries vCPU and memory only: priced gpu_ms usage or a
    # priced gpu allocation would bill $0.
    platform = tmp_path / "gpu.yaml"
    argv = ["--records", trace_csv] if records else ["--mem-mb", 128, "--exec-ms", 10]
    for resource, spec in [
        ("gpu_ms", "usage_resources:\n"
                   "  - {resource: gpu_ms, granularity: 1, unit_price_usd_per_unit: 0.5}\n"),
        ("gpu", "  - {resource: gpu, granularity: 1, unit_price_usd_per_unit_second: 0.5}\n"),
    ]:
        platform.write_text(
            "name: gpu\nbillable_time: {kind: execution, granularity_ms: 1}\n"
            "invocation_fee_usd: 0\n"
            "alloc_resources:\n"
            "  - {resource: memory_gb, granularity: 1, unit_price_usd_per_unit_second: 1}\n"
            + spec
        )
        out = tmp_path / "out"
        assert run("bill", "--platform", platform, *argv, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {platform}: ") and f"{resource!r} is not metered" in err
        assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["--records", "TRACE", "--exec-ms", 5, "--mem-mb", 999], "--mem-mb"),
    (["--records", "TRACE", "--vcpus", 1], "--vcpus"),
    (["--records", "TRACE", "--init-ms", 0], "--init-ms"),
    (["--records", "TRACE", "--cpu-avg-vcpus", 0.5], "--cpu-avg-vcpus"),
    (["--records", "TRACE", "--mem-used-mb", 64], "--mem-used-mb"),
    (["--mem-mb", 128, "--exec-ms", 96, "--schema", "MISSING"], "--schema"),
    (["--mem-mb", 128, "--exec-ms", 96, "--format", "csv"], "--format"),
], ids=["records-exec-mem", "records-vcpus", "records-init", "records-cpu", "records-mem-used",
        "single-schema", "single-format"])
def test_bill_rejects_an_option_its_mode_ignores(argv, option, monkeypatch, tmp_path, trace_csv,
                                                 capsys):
    from faascost import cli

    def unread(*args, **kwargs):
        raise AssertionError("the trace was read")

    monkeypatch.setattr(cli, "ingest_trace", unread)
    files = {"TRACE": trace_csv, "MISSING": tmp_path / "missing.yaml"}
    out = tmp_path / "out"
    assert run("bill", "--platform", "aws_lambda", *[files.get(a, a) for a in argv],
               "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1
    assert not out.exists()


def test_bill_manifest_records_inputs(tmp_path, trace_csv):
    out = tmp_path / "out"
    assert run("bill", "--platform", "aws_lambda", "--records", trace_csv,
               "--out-dir", out) == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["subcommand"] == "bill"
    assert manifest["tool_version"]
    assert manifest["config_paths"][0].endswith("aws_lambda.yaml")
    digest = manifest["input_digests"][str(trace_csv)]
    assert len(digest) == 64
    assert manifest["outputs"] == ["bills.csv"]


_MEM_PER_VCPU = ["simulate", "--t", "10", "--p", "20", "--grid", 10, "--breakpoints",
                 "--out-dir", "OUT", "--mem-per-vcpu-mb"]
# Each command, and the message it fails with.
_BAD_NUMBERS = {
    "vcpus-abc": (["bill", "--platform", "aws_lambda", "--vcpus", "abc", "--mem-mb", 128,
                   "--exec-ms", 10], "not a number: 'abc'"),
    "mem-inf": (["bill", "--platform", "aws_lambda", "--mem-mb", "inf", "--exec-ms", 10],
                "non-finite amount: 'inf'"),
    "mem-nan": (["bill", "--platform", "aws_lambda", "--mem-mb", "nan", "--exec-ms", 10],
                "non-finite amount: 'nan'"),
    "t-nan": (["simulate", "--t", "nan", "--p", "20", "--q", "5"], "non-finite amount: 'nan'"),
    "t-inf": (["simulate", "--t", "inf", "--p", "20", "--q", "5"], "non-finite amount: 'inf'"),
    "q-abc": (["simulate", "--t", "10", "--p", "20", "--q", "abc"], "not a number: 'abc'"),
    "mem-1e250": (["bill", "--platform", "aws_lambda", "--mem-mb", "1e250", "--exec-ms", 1],
                  "allocation amounts must be >= 0 and below 2**53"),
    "exec-1e250": (["bill", "--platform", "aws_lambda", "--mem-mb", 128, "--exec-ms", "1e250"],
                   "durations must be >= 0 and below 2**53"),
    "sweep-sub-us-quota": (["simulate", "--t", "100", "--p", "0.1", "--grid", 3, "--f-lo",
                            "0.001", "--out-dir", "OUT"],
                           "fraction 0.001 yields a quota below 1 us at period 0.1 ms"),
    "duration-inf": (["profile", "run", "--duration-ms", "inf", "--out-dir", "OUT"],
                     "exec_duration_ms must be finite"),
    "duration-nan": (["profile", "run", "--duration-ms", "nan", "--out-dir", "OUT"],
                     "exec_duration_ms must be finite"),
    "runtime-nan": (["profile", "analyze", "--in", "EVENTS", "--runtime-ms", "nan",
                     "--out-dir", "OUT"], "total_runtime_ms must be finite"),
    "runtime-inf": (["profile", "report", "--in", "EVENTS", "--runtime-ms", "inf",
                     "--out-dir", "OUT"], "total_runtime_ms must be finite"),
    "summary-nan": (["profile", "analyze", "--in", "NAN_EVENTS", "--out-dir", "OUT"],
                    "NAN_SUMMARY: total_runtime_ms must be finite"),
    "alignment-tol-nan": (["profile", "analyze", "--in", "EVENTS", "--alignment-tol-us", "nan",
                           "--out-dir", "OUT"], "alignment_tol_us must be finite and nonnegative"),
    "mem-per-vcpu-inf": ([*_MEM_PER_VCPU, "inf"], "mem_per_vcpu_mb must be finite and positive"),
    "mem-per-vcpu-negative": ([*_MEM_PER_VCPU, "-1769"],
                              "mem_per_vcpu_mb must be finite and positive"),
    "mem-per-vcpu-zero": ([*_MEM_PER_VCPU, "0"], "mem_per_vcpu_mb must be finite and positive"),
    "session-gap-nan": (["analyze", "--trace", "TRACE", "--analyses", "cold-start",
                         "--session-gap-ms", "nan", "--out-dir", "OUT"],
                        "session_gap_ms must be nonnegative"),
    "session-gap-negative": (["analyze", "--trace", "TRACE", "--analyses", "cold-start",
                              "--session-gap-ms", "-1", "--out-dir", "OUT"],
                             "session_gap_ms must be nonnegative"),
}


@pytest.mark.parametrize("case", list(_BAD_NUMBERS))
def test_bad_number_fails_cleanly(case, tmp_path, trace_csv, events_csv, capsys):
    argv, message = _BAD_NUMBERS[case]
    # An event log whose probe summary holds a NaN runtime.
    nan_events = tmp_path / "nan" / "events.csv"
    nan_events.parent.mkdir()
    nan_events.write_bytes(events_csv.read_bytes())
    nan_events.with_name("probe_summary.json").write_text('{"total_runtime_ms": NaN}')
    files = {"OUT": tmp_path / "out", "TRACE": trace_csv, "EVENTS": events_csv,
             "NAN_EVENTS": nan_events}
    assert run(*[files.get(a, a) for a in argv]) == 1
    message = message.replace("NAN_SUMMARY", str(nan_events.with_name("probe_summary.json")))
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not files["OUT"].exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("action", ["analyze", "report"])
def test_non_finite_summary_runtime_names_the_sidecar(action, value, tmp_path, events_csv,
                                                      capsys):
    events = tmp_path / "events.csv"
    events.write_bytes(events_csv.read_bytes())
    sidecar = events.with_name("probe_summary.json")
    sidecar.write_text(f'{{"total_runtime_ms": {value}}}')
    out = tmp_path / "out"
    assert run("profile", action, "--in", events, "--out-dir", out) == 1
    assert capsys.readouterr().err == f"error: {sidecar}: total_runtime_ms must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("option, message", [
    (["--session-gap-ms", "nan"], "session_gap_ms must be nonnegative"),
    (["--roundup-ms", "0"], "time granularity must be positive"),
    (["--platforms", ""], "empty list argument: ''"),
    (["--roundup-ms", ""], "empty list argument: ''"),
], ids=["session-gap-nan", "roundup-zero", "platforms-empty", "roundup-empty"])
def test_analyze_rejects_its_options_before_reading_the_trace(option, message, monkeypatch,
                                                               tmp_path, trace_csv, capsys):
    from faascost import cli

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return ingest_trace(*args, **kwargs)

    monkeypatch.setattr(cli, "ingest_trace", counting)
    out = tmp_path / "out"
    assert run("analyze", "--trace", trace_csv, *option, "--out-dir", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == [] and not out.exists()


def test_analyze_resolves_its_platforms_before_reading_the_trace(monkeypatch, tmp_path,
                                                                 capsys):
    from faascost import cli

    def unread(*args, **kwargs):
        raise AssertionError("the trace was read")

    monkeypatch.setattr(cli, "ingest_trace", unread)
    out = tmp_path / "out"
    # The trace is not there either: the platform is reported first.
    assert run("analyze", "--trace", tmp_path / "trace.csv", "--platforms", "aws_lambda,nope",
               "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no platform config named 'nope' in ")
    assert len(err.splitlines()) == 1 and not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["--analyses", "correlation", "--platforms", "aws_lambda"], "--platforms"),
    (["--analyses", "cold-start,roundup", "--platforms", "nope"], "--platforms"),
    (["--analyses", "correlation", "--mapping", "normalize"], "--mapping"),
    (["--analyses", "roundup", "--mapping", "direct"], "--mapping"),
    (["--analyses", "inflation", "--roundup-ms", "1"], "--roundup-ms"),
    (["--analyses", "correlation", "--roundup-cutoff-ms", 0], "--roundup-cutoff-ms"),
    (["--analyses", "cold-start", "--roundup-mem-gb", 0.125], "--roundup-mem-gb"),
    (["--analyses", "roundup", "--session-gap-ms", 5000], "--session-gap-ms"),
    (["--analyses", "inflation", "--seed", 5], "--seed"),
    (["--analyses", "correlation", "--config-dir", "/nonexistent"], "--config-dir"),
], ids=["correlation-platforms", "bad-platform", "correlation-mapping", "roundup-mapping",
        "inflation-roundup-ms", "correlation-roundup-cutoff", "cold-start-roundup-mem",
        "roundup-session-gap", "inflation-seed", "correlation-config-dir"])
def test_analyze_rejects_an_option_its_analyses_ignore(argv, option, monkeypatch, tmp_path,
                                                        trace_csv, capsys):
    from faascost import cli

    def unread(*args, **kwargs):
        raise AssertionError("the trace was read")

    monkeypatch.setattr(cli, "ingest_trace", unread)
    out = tmp_path / "out"
    assert run("analyze", "--trace", trace_csv, *argv, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1
    assert not out.exists()


# A wrong-typed field in each input file a command reads, and the command.
_WRONG_TYPED = {
    "platform-granularity-list": (
        "p.yaml", "name: p\nbillable_time:\n  kind: execution\n  granularity_ms: [1]\n",
        ["bill", "--platform", "BAD", "--exec-ms", 1]),
    "platform-billable-time-int": (
        "p.yaml", "name: p\nbillable_time: 5\n",
        ["bill", "--platform", "BAD", "--exec-ms", 1]),
    "platform-alloc-resources-int": (
        "p.yaml", "name: p\nbillable_time:\n  kind: execution\nalloc_resources: 5\n",
        ["bill", "--platform", "BAD", "--exec-ms", 1]),
    # A key the config does not define, at each place it may stand, in a
    # config that bills with the key left out.
    **{f"platform-unknown-key-{place}": (
        "p.yaml", "name: p\ninvocation_fee_usd: 0\nbillable_time: {kind: execution, " + text,
        ["bill", "--platform", "BAD", "--exec-ms", 1])
       for place, text in [
           ("top", "granularity_ms: 1}\nmin_cutoff_ms: 100\n"),
           ("billable-time", "granularity_ms: 1, min_cutof_ms: 100}\n"),
           ("alloc", "granularity_ms: 1}\n"
                     "alloc_resources: [{resource: vcpu, granularity: 1, price: 1}]\n"),
           ("usage", "granularity_ms: 1}\n"
                     "usage_resources: [{resource: vcpu, granularity: 1, basis: absolute}]\n"),
           ("coupling", "granularity_ms: 1}\n"
                        "knob_coupling: {kind: independent, mem_per_vcpu_mb: 1769}\n"),
           ("combo", "granularity_ms: 1}\nknob_coupling: {kind: fixed_combos,\n"
                     "  combos: [{vcpu: 1, memory_mb: 128, gpu: 1}]}\n"),
       ]},
    "schema-columns-int": (
        "schema.yaml", "columns: 5\n", ["analyze", "--trace", "TRACE", "--schema", "BAD"]),
    "reference-period-list": (
        "ref.yaml", "lab:\n  period_ms: [1]\n  tick_hz: 250\n",
        ["profile", "report", "--in", "EVENTS", "--reference", "BAD"]),
    "sidecar-no-runtime": (
        "probe_summary.json", '{"n_events": 1}', ["profile", "analyze", "--in", "EVENTS"]),
    "sidecar-list": (
        "probe_summary.json", "[1, 2]", ["profile", "analyze", "--in", "EVENTS"]),
    # Files that do not parse at all.
    "platform-malformed-yaml": (
        "p.yaml", "name: [\n", ["bill", "--platform", "BAD", "--exec-ms", 1]),
    "schema-malformed-yaml": (
        "schema.yaml", "columns: [\n", ["analyze", "--trace", "TRACE", "--schema", "BAD"]),
    "schema-malformed-json": (
        "schema.json", '{"columns": ', ["analyze", "--trace", "TRACE", "--schema", "BAD"]),
    "reference-malformed-yaml": (
        "ref.yaml", "x: [\n", ["profile", "report", "--in", "EVENTS", "--reference", "BAD"]),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPED))
def test_wrong_typed_input_file_fails_cleanly(case, tmp_path, trace_csv, events_csv, capsys):
    name, text, argv = _WRONG_TYPED[case]
    # The event log and its sidecar, which the bad file may replace.
    for log in ("events.csv", "probe_summary.json"):
        (tmp_path / log).write_bytes((events_csv.parent / log).read_bytes())
    bad = tmp_path / name
    bad.write_text(text)
    files = {"BAD": bad, "TRACE": trace_csv, "EVENTS": tmp_path / "events.csv"}
    out = tmp_path / "out"
    assert run(*[files.get(a, a) for a in argv], "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not out.exists()


# --------------------------------------------------------------- analyze


def test_analyze_writes_all_tables(tmp_path, trace_csv):
    out = tmp_path / "out"
    assert run("analyze", "--trace", trace_csv, "--platforms",
               "aws_lambda,gcp_cloudrun_functions", "--out-dir", out) == 0
    for name in ("inflation.csv", "utilization_correlation.csv", "cold_start.csv",
                 "rounding_up.csv", "report.json", "run.json"):
        assert (out / name).exists(), name
    inflation = read_rows(out / "inflation.csv")
    assert [r["platform"] for r in inflation] == ["aws_lambda", "gcp_cloudrun_functions"]
    assert float(inflation[0]["mean_inflation_cpu"]) > 1.0
    report = json.loads((out / "report.json").read_text())
    assert report["n_records"] == 100
    assert report["correlation"]["n"] == 100


def test_analyze_deterministic_across_runs(tmp_path, trace_csv):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("analyze", "--trace", trace_csv, "--seed", 3,
                   "--out-dir", out) == 0
        outs.append(out)
    a, b = outs
    for path_a in sorted(a.iterdir()):
        path_b = b / path_a.name
        if path_a.name == "run.json":
            doc_a = json.loads(path_a.read_text())
            doc_b = json.loads(path_b.read_text())
            doc_a.pop("wall_time_s")
            doc_b.pop("wall_time_s")
            assert doc_a == doc_b
        else:
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_analyze_scatter_file_is_the_sample_of_pairs(tmp_path, trace_csv, fmt):
    # The bytes a list of (cpu, mem) pairs gave, one dict a row, csv.writer
    # or one indented JSON array.
    assert run("analyze", "--trace", trace_csv, "--analyses", "correlation", "--seed", 3,
               "--format", fmt, "--out-dir", tmp_path) == 0
    corr = utilization_correlation(list(ingest_trace(trace_csv)), seed=3)
    points = zip(corr.scatter_x, corr.scatter_y)
    fieldnames = ["cpu_utilization", "mem_utilization"]
    rows = [dict(zip(fieldnames, point)) for point in points]
    assert len(rows) == 100
    if fmt == "json":
        expected = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([row[name] for name in fieldnames] for row in rows)
        expected = buffer.getvalue()
    assert (tmp_path / f"utilization_scatter.{fmt}").read_text() == expected


def test_analyze_unknown_schema_column_fails(tmp_path, trace_csv, capsys):
    schema = tmp_path / "schema.yaml"
    schema.write_text(
        "columns:\n  function_id: function_id\n  arrival_ts: arrival_ts_ms\n"
        "  exec_duration: exec_duration_ms\n  alloc_vcpus: alloc_vcpus\n"
        "  alloc_memory_mb: alloc_memory_mb\n"
        "  cpu_usage_avg_vcpus: cpu_usage_avg_vcpus\n  mem_usage: mem_usage_mb\n"
        "  wattage: watts\n"
    )
    out = tmp_path / "out"
    code = run("analyze", "--trace", trace_csv, "--schema", schema, "--out-dir", out)
    assert code == 1
    assert "wattage" in capsys.readouterr().err


def test_analyze_requires_out_dir(trace_csv, capsys):
    assert run("analyze", "--trace", trace_csv) == 1
    assert "--out-dir" in capsys.readouterr().err


def test_analyze_roundup_policies(tmp_path, trace_csv):
    out = tmp_path / "out"
    assert run("analyze", "--trace", trace_csv, "--analyses", "roundup",
               "--roundup-ms", "1,100", "--roundup-mem-gb", "0.125",
               "--out-dir", out) == 0
    rows = read_rows(out / "rounding_up.csv")
    assert [r["policy"] for r in rows] == ["1ms_mem0.125gb", "100ms_mem0.125gb"]
    assert float(rows[1]["mean_time_roundup_ms"]) > float(rows[0]["mean_time_roundup_ms"])


def test_analyze_skips_non_finite_rows(tmp_path):
    trace = tmp_path / "nan.csv"
    trace.write_text(
        "function_id,instance_id,arrival_ts_ms,exec_duration_ms,init_duration_ms,"
        "is_cold_start,alloc_vcpus,alloc_memory_mb,cpu_usage_avg_vcpus,mem_usage_mb\n"
        "fa,i1,0,nan,0,false,1,128,0.5,64\n"
        "fa,i1,5,10,0,false,1,128,0.5,64\n"
    )
    out = tmp_path / "out"
    assert run("analyze", "--trace", trace, "--platforms", "aws_lambda",
               "--analyses", "inflation", "--out-dir", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_records"] == 1
    assert report["ingest"]["malformed_skipped"] == 1


# -------------------------------------------------------------- simulate


def test_simulate_sweep_full_fraction_hits_cpu_time(tmp_path):
    # At 8 points from 0.1 the last fraction summed to 1.0000000000000002.
    for grid, f_lo in ((60, 0.005), (8, 0.1)):
        out = tmp_path / f"out{grid}"
        assert run("simulate", "--t", "33.1", "--p", "5,10,20,40,80", "--grid", grid,
                   "--f-lo", f_lo, "--out-dir", out) == 0
        for p in ("5", "10", "20", "40", "80"):
            rows = read_rows(out / f"duration_curve_p{p}.csv")
            assert len(rows) == grid
            last = rows[-1]
            assert last["f"] == "1.0"
            assert float(last["completion_ms"]) == pytest.approx(33.1)
            assert int(last["n_throttles"]) == 0


def test_simulate_timeline_mode(capsys):
    assert run("simulate", "--t", "33.1", "--p", "20", "--q", "1.45") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["segments"][0] == {"start_ms": 0.0, "end_ms": 4.0, "state": "running"}
    assert doc["overruns_ms"][0] == pytest.approx(2.55)
    assert doc["n_throttles"] == 8
    assert doc["closed_form_completion_ms"] == pytest.approx(441.2)


def test_simulate_exact_accounting_matches_closed_form(tmp_path):
    lagged = tmp_path / "lagged"
    exact = tmp_path / "exact"
    for flag, out in ((None, lagged), ("--exact-accounting", exact)):
        argv = ["simulate", "--t", "33.1", "--p", "20", "--grid", 30,
                "--out-dir", out]
        if flag:
            argv.insert(1, flag)
        assert run(*argv) == 0
    task = TaskSpec(cpu_time_ms="33.1")
    for row in read_rows(exact / "duration_curve_p20.csv"):
        expected = closed_form_duration(task, "20", row["quota_ms"])
        assert float(row["completion_ms"]) == pytest.approx(expected, rel=1e-12)


def test_simulate_breakpoints_output(tmp_path):
    out = tmp_path / "out"
    assert run("simulate", "--t", "160", "--p", "20", "--grid", 120,
               "--breakpoints", "--mem-per-vcpu-mb", 1769, "--out-dir", out) == 0
    rows = read_rows(out / "breakpoints_p20.csv")
    assert rows, "a 160 ms task over a 120-point grid has quantization steps"
    for row in rows:
        assert float(row["memory_mb"]) == pytest.approx(float(row["fraction"]) * 1769)


def test_simulate_closed_form_breakpoints_are_the_exact_accounting_ones(tmp_path):
    out = tmp_path / "out"
    assert run("simulate", "--t", "33.4", "--p", "5,20", "--grid", 60, "--exact-accounting",
               "--breakpoints", "--out-dir", out) == 0
    assert sorted(p.name for p in out.glob("breakpoints_*")) == [
        "breakpoints_p20.csv", "breakpoints_p5.csv"]
    task = TaskSpec(cpu_time_ms="33.4")
    for period in ("5", "20"):
        # A breakpoint is a drop of more than half the period between adjacent
        # grid points; recompute the drops from the closed form on the same grid.
        curve = read_rows(out / f"duration_curve_p{period}.csv")
        closed = [closed_form_duration(task, period, row["quota_ms"]) for row in curve]
        expected = [(float(cur["f"]), before - after)
                    for cur, before, after in zip(curve[1:], closed, closed[1:])
                    if before - after > float(period) / 2]
        rows = read_rows(out / f"breakpoints_p{period}.csv")
        got = [(float(row["fraction"]), float(row["completion_drop_ms"])) for row in rows]
        assert [f for f, _ in got] == [f for f, _ in expected]
        for (_, drop), (_, want) in zip(got, expected):
            assert drop == pytest.approx(want, rel=1e-12)
    assert read_rows(out / "breakpoints_p20.csv")


@pytest.mark.parametrize("argv, option", [
    (["--q", "5", "--breakpoints"], "--breakpoints"),
    (["--q", "5", "--mem-per-vcpu-mb", "1769"], "--mem-per-vcpu-mb"),
    (["--grid", "10", "--mem-per-vcpu-mb", "1769"], "--mem-per-vcpu-mb"),
    (["--q", "5", "--grid", "200"], "--grid"),
    (["--q", "5", "--f-lo", "0.01"], "--f-lo"),
    (["--q", "5", "--format", "json"], "--format"),
], ids=["timeline-breakpoints", "timeline-mem-per-vcpu", "sweep-mem-per-vcpu", "timeline-grid",
        "timeline-f-lo", "timeline-format"])
def test_simulate_rejects_an_option_its_mode_ignores(argv, option, tmp_path, capsys):
    out = tmp_path / "out"
    assert run("simulate", "--t", "10", "--p", "20", *argv, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_rejects_quota_above_period(capsys):
    assert run("simulate", "--t", "10", "--p", "20", "--q", "25") == 1
    assert "quota" in capsys.readouterr().err


def test_simulate_format_json(tmp_path):
    out = tmp_path / "out"
    assert run("simulate", "--t", "10", "--p", "20", "--grid", 10,
               "--format", "json", "--out-dir", out) == 0
    rows = json.loads((out / "duration_curve_p20.json").read_text())
    assert len(rows) == 10 and rows[-1]["f"] == 1.0


def test_simulate_rejects_periods_with_one_file_name(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("simulate", "--t", "160", "--p", "10,20,20.0", "--grid", 10,
               "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert "'20' and '20.0'" in err and "duration_curve_p20" in err
    assert not [p for p in out.rglob("*") if p.is_file()]


# --------------------------------------------------------------- profile


def test_profile_replay_analyze_report_round_trip(tmp_path):
    out = tmp_path / "out"
    assert run("profile", "replay", "--t", "500", "--p", "20", "--q", "1.45",
               "--tick-hz", 250, "--out-dir", out) == 0
    events = out / "events.csv"
    assert events.exists()
    summary = json.loads((out / "probe_summary.json").read_text())
    assert summary["n_events"] > 100

    fp_dir = tmp_path / "fp"
    assert run("profile", "analyze", "--in", events, "--out-dir", fp_dir) == 0
    fp = json.loads((fp_dir / "fingerprint.json").read_text())
    assert fp["period_ms_estimate"] == pytest.approx(20.0, abs=0.5)
    assert fp["tick_hz_estimate"] == 250
    assert fp["quota_ms_estimate"] == pytest.approx(1.45, abs=1.0)

    rep_dir = tmp_path / "rep"
    assert run("profile", "report", "--in", events, "--out-dir", rep_dir) == 0
    rep = json.loads((rep_dir / "report.json").read_text())
    assert rep["matched_platforms"] == ["aws"]


def test_profile_analyze_runtime_fallback_warns(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("profile", "replay", "--t", "200", "--p", "20", "--q", "5",
               "--out-dir", out) == 0
    # Drop the sidecar so the fallback path triggers.
    (out / "probe_summary.json").unlink()
    assert run("profile", "analyze", "--in", out / "events.csv") == 0
    captured = capsys.readouterr()
    assert "last event time" in captured.err
    json.loads(captured.out)


def test_profile_report_custom_reference(tmp_path):
    out = tmp_path / "out"
    assert run("profile", "replay", "--t", "500", "--p", "50", "--q", "5",
               "--tick-hz", 300, "--out-dir", out) == 0
    table = tmp_path / "ref.yaml"
    table.write_text("lab:\n  period_ms: 50\n  tick_hz: 300\n")
    rep_dir = tmp_path / "rep"
    assert run("profile", "report", "--in", out / "events.csv",
               "--reference", table, "--out-dir", rep_dir) == 0
    rep = json.loads((rep_dir / "report.json").read_text())
    assert rep["matched_platforms"] == ["lab"]


@pytest.mark.parametrize("table, named", [
    ("lab:\n  tick_hz: 300\n", "period_ms"),
    ("lab: 50\n", "mapping"),
    ("lab:\n  period_ms: 20\n  tick_hz: 250.9\n", "tick_hz"),
    ("lab:\n  period_ms: 20\n  tick_hz: true\n", "tick_hz"),
    ("lab:\n  period_ms: 20\n  tick_hz: 0\n", "tick_hz"),
    ("lab:\n  period_ms: 20\n  tick_hz: .inf\n", "tick_hz"),
    ("lab:\n  period_ms: -20\n  tick_hz: 250\n", "period_ms"),
    ("lab:\n  period_ms: .nan\n  tick_hz: 250\n", "period_ms"),
    ("lab: {period_ms: 20, tick_hz: 250, notes: fixed cap}\n", "notes"),
    ("lab: {period_ms: 20, tick_hz: 250, note: fixed cap}\n", "note"),
], ids=["missing-key", "not-a-mapping", "fractional-tick", "bool-tick", "zero-tick", "inf-tick",
        "negative-period", "nan-period", "unknown-key", "note"])
def test_profile_report_bad_reference_fails(tmp_path, events_csv, capsys, table, named):
    reference = tmp_path / "ref.yaml"
    reference.write_text(table)
    assert run("profile", "report", "--in", events_csv, "--reference", reference) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lab" in err and named in err


def test_profile_creates_a_nested_out_dir(tmp_path):
    out = tmp_path / "missing" / "nested"
    assert run("profile", "replay", "--t", "200", "--p", "20", "--q", "5",
               "--out-dir", out) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "events.csv", "probe_summary.json", "run.json"]
    manifest = json.loads((out / "run.json").read_text())
    # Outputs are named relative to the manifest's directory.
    assert manifest["outputs"] == ["events.csv", "probe_summary.json"]


def test_profile_replay_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("profile", "replay", "--t", "300", "--p", "10", "--q", "2",
                   "--out-dir", out) == 0
        outs.append((out / "events.csv").read_bytes())
    assert outs[0] == outs[1]


def test_profile_run_live_smoke(tmp_path):
    out = tmp_path / "out"
    assert run("profile", "run", "--duration-ms", 15, "--out-dir", out) == 0
    summary = json.loads((out / "probe_summary.json").read_text())
    assert summary["total_runtime_ms"] >= 15.0
    assert "live" in summary["notes"]


# -------------------------------------------------------------- manifest

_MANIFEST_CASES = {
    "bill": ["bill", "--platform", "aws_lambda", "--mem-mb", "128", "--exec-ms", "96"],
    "bill-records": ["bill", "--platform", "aws_lambda", "--records", "TRACE"],
    "analyze": ["analyze", "--trace", "TRACE", "--platforms",
                "aws_lambda,gcp_cloudrun_functions"],
    "simulate-sweep": ["simulate", "--t", "160", "--p", "20,100", "--grid", "60",
                       "--breakpoints"],
    "simulate-timeline": ["simulate", "--t", "33.1", "--p", "20", "--q", "1.45"],
    "profile-replay": ["profile", "replay", "--t", "200", "--p", "20", "--q", "5"],
    "profile-analyze": ["profile", "analyze", "--in", "EVENTS"],
    "profile-report": ["profile", "report", "--in", "EVENTS", "--reference", "REFERENCE"],
}


@pytest.mark.parametrize("argv", _MANIFEST_CASES.values(), ids=_MANIFEST_CASES)
def test_manifest_matches_directory(argv, tmp_path, trace_csv, events_csv):
    reference = tmp_path / "ref.yaml"
    reference.write_text("lab:\n  period_ms: 20\n  tick_hz: 250\n")
    files = {"TRACE": trace_csv, "EVENTS": events_csv, "REFERENCE": reference}
    out = tmp_path / "out"
    assert run(*[files.get(a, a) for a in argv], "--out-dir", out) == 0
    manifest = json.loads((out / "run.json").read_text())
    # Every output is listed by its path relative to the manifest's directory.
    written = {p for p in out.iterdir() if p.name != "run.json"}
    assert manifest["outputs"] == sorted(manifest["outputs"])
    assert {(out / name).resolve() for name in manifest["outputs"]} == {
        p.resolve() for p in written
    }
    inputs = {str(files[a]) for a in argv if a in files}
    if "EVENTS" in argv:  # the total runtime is read from the probe summary
        inputs.add(str(events_csv.with_name("probe_summary.json")))
    assert set(manifest["input_digests"]) == inputs


@pytest.mark.parametrize("argv", [
    ["analyze", "--trace", "TRUNCATED", "--out-dir", "OUT"],
    ["bill", "--platform", "aws_lambda", "--records", "TRUNCATED", "--out-dir", "OUT"],
], ids=["analyze", "bill-records"])
def test_truncated_gzip_trace_fails_cleanly(argv, tmp_path, trace_csv, capsys):
    compressed = gzip.compress(trace_csv.read_bytes())
    truncated = tmp_path / "trace.csv.gz"
    truncated.write_bytes(compressed[: len(compressed) // 2])
    files = {"TRUNCATED": truncated, "OUT": tmp_path / "out"}
    assert run(*[files.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trace.csv.gz" in err and "truncated" in err
    assert not (tmp_path / "out" / "run.json").exists()
    assert not [p for p in (tmp_path / "out").rglob("*") if p.is_file()]


def _flat_trace(path: Path, n: int) -> Path:
    """``n`` rows with one utilization, so their correlation is undefined."""
    rows = [f"f,i{i},{i}.0,10.0,0.0,false,1,1024,0.5,512" for i in range(n)]
    path.write_text("function_id,instance_id,arrival_ts_ms,exec_duration_ms,"
                    "init_duration_ms,is_cold_start,alloc_vcpus,alloc_memory_mb,"
                    "cpu_usage_avg_vcpus,mem_usage_mb\n" + "\n".join(rows) + "\n")
    return path


def test_failed_analyze_leaves_no_files(tmp_path, capsys):
    # Inflation, correlation and cold start stage their tables before the
    # roundup policy is rejected.
    trace = _flat_trace(tmp_path / "flat.csv", 3)
    out = tmp_path / "out"
    assert run("analyze", "--trace", trace, "--roundup-ms", "0", "--out-dir", out) == 1
    assert "time granularity must be positive" in capsys.readouterr().err
    assert not [p for p in out.rglob("*") if p.is_file()]


@pytest.mark.parametrize("table_format", ["csv", "json"])
def test_analyze_reports_an_undefined_correlation_and_writes_every_table(
    table_format, tmp_path, capsys
):
    trace = _flat_trace(tmp_path / "flat.csv", 40)
    out = tmp_path / "out"
    assert run("analyze", "--trace", trace, "--format", table_format, "--out-dir", out) == 0
    err = capsys.readouterr().err
    assert err == "warning: correlation undefined: zero variance in utilization\n"
    report = json.loads((out / "report.json").read_text())
    assert report["correlation"]["pearson_r"] is None
    assert report["correlation"]["n"] == 40
    for stem in ("inflation", "utilization_correlation", "utilization_scatter",
                 "cold_start", "rounding_up"):
        assert (out / f"{stem}.{table_format}").is_file(), stem
    if table_format == "csv":
        (row,) = read_rows(out / "utilization_correlation.csv")
        assert row["pearson_r"] == "" and row["n"] == "40"


@pytest.mark.parametrize("table_format", ["csv", "json"])
def test_failed_command_removes_the_directories_it_made(table_format, tmp_path, trace_csv,
                                                        capsys):
    # cloudflare_workers documents no vCPU price, so billing fails once the
    # bills table is staged.
    argv = ["bill", "--platform", "cloudflare_workers", "--records", trace_csv,
            "--format", table_format, "--out-dir"]
    assert run(*argv, tmp_path / "made" / "out") == 1
    assert "not documented publicly" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    existing = tmp_path / "existing"
    existing.mkdir()
    assert run(*argv, existing) == 1
    assert existing.is_dir() and list(existing.iterdir()) == []
    assert run(*argv, existing / "out") == 1
    assert list(existing.iterdir()) == []


def test_manifest_seed_only_for_analyze(tmp_path, trace_csv):
    assert run("analyze", "--trace", trace_csv, "--seed", 5, "--out-dir", tmp_path / "a") == 0
    # The seed is the correlation analysis's: 0 when it runs unseeded, null
    # when it does not run.
    assert run("analyze", "--trace", trace_csv, "--analyses", "correlation",
               "--out-dir", tmp_path / "c") == 0
    assert run("analyze", "--trace", trace_csv, "--analyses", "inflation,roundup",
               "--out-dir", tmp_path / "i") == 0
    assert run("simulate", "--t", "33.1", "--p", "20", "--q", "1.45",
               "--out-dir", tmp_path / "s") == 0
    seeds = [json.loads((tmp_path / d / "run.json").read_text())["seed"] for d in "acis"]
    assert seeds == [5, 0, None, None]


_JSON_CELLS = ['say "hi"', "back\\slash", "tab\tline\nnul\x00\x1f\x7f", "naïve ☃ 𝄞", "",
               None, True, False, 0, -7, 2**70, -0.0, 1e300, 5e-324, 0.1,
               math.nan, math.inf, -math.inf]
# Column names out of sorted order, two of them needing escapes.
_JSON_COLUMNS = [f"c{k:02d}" for k in reversed(range(len(_JSON_CELLS) - 2))] + ['q"', "é"]


@pytest.mark.parametrize("rows", [
    [],
    [_JSON_CELLS[k:] + _JSON_CELLS[:k] for k in range(len(_JSON_CELLS))],
], ids=["empty", "scalars"])
def test_json_array_streams_the_bytes_of_one_dump(rows):
    out = io.StringIO()
    _write_json_array(out, iter(rows), _JSON_COLUMNS)
    dicts = [dict(zip(_JSON_COLUMNS, row)) for row in rows]
    assert out.getvalue() == json.dumps(dicts, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["bill", "--platform", "gcp_cloudrun_functions", "--records", "TRACE"],
    ["analyze", "--trace", "TRACE", "--platforms", "aws_lambda,cloudflare_workers"],
    ["simulate", "--t", "10", "--p", "5,20", "--grid", "10", "--breakpoints"],
], ids=["bill", "analyze", "simulate"])
def test_json_tables_are_one_dump(argv, tmp_path, trace_csv):
    # Each JSON table is one dump of its rows, and its CSV form is the bytes
    # csv.DictWriter writes for the same rows: None is an empty cell, as in
    # the simulate case's breakpoints memory_mb.
    argv = [trace_csv if a == "TRACE" else a for a in argv]
    out, out_csv = tmp_path / "out", tmp_path / "out_csv"
    assert run(*argv, "--format", "json", "--out-dir", out) == 0
    assert run(*argv, "--out-dir", out_csv) == 0
    tables = [p for p in out.glob("*.json") if p.name not in ("run.json", "report.json")]
    assert tables
    for path in tables:
        text = path.read_text()
        rows = json.loads(text)
        assert text == json.dumps(rows, indent=2, sort_keys=True) + "\n"
        written = (out_csv / f"{path.stem}.csv").read_text()
        want = io.StringIO()
        writer = csv.DictWriter(want, fieldnames=written.split("\n", 1)[0].split(","),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        assert written == want.getvalue(), path.name
    if "--breakpoints" in argv:
        assert any(row["memory_mb"] == "" for row in read_rows(out_csv / "breakpoints_p20.csv"))


def _commands(parser, words=()):
    """Each runnable command's parser, keyed by the words that select it."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _commands(child, words + (name,))
            return
    yield " ".join(words), parser


def test_parser_surface():
    options = {
        command: {flag: action for action in sub._actions for flag in action.option_strings}
        for command, sub in _commands(build_parser())
    }
    assert set(options) == {"bill", "analyze", "simulate", "profile run",
                            "profile replay", "profile analyze", "profile report"}
    assert all("--out-dir" in flags for flags in options.values())
    assert [c for c, flags in options.items() if "--seed" in flags] == ["analyze"]
    assert sorted(c for c, flags in options.items() if "--format" in flags) == [
        "analyze", "bill", "simulate"]
    # An option that several commands take means the same thing in each.
    seen = {}
    for command, flags in options.items():
        for flag, action in flags.items():
            spec = (action.default, action.type, action.choices)
            assert seen.setdefault(flag, spec) == spec, (command, flag)
    # No parser takes a prefix of an option for that option.
    parsers = [build_parser()]
    for parser in parsers:
        assert parser.allow_abbrev is False, parser.prog
        parsers.extend(child for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)
                       for child in action.choices.values())
    assert len(parsers) == 9


@pytest.mark.parametrize("argv, given", [
    (["profile", "replay", "--t", "200", "--p", "20", "--q", "5", "--out", "x/events.csv"],
     "--out x/events.csv"),
    (["analyze", "--trace", "TRACE", "--platform", "gcp_cloud_run", "--out-dir", "x"],
     "--platform gcp_cloud_run"),
], ids=["out-for-out-dir", "platform-for-platforms"])
def test_a_prefix_of_an_option_is_rejected(argv, given, tmp_path, trace_csv, monkeypatch,
                                           capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([str(trace_csv) if a == "TRACE" else a for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"faascost: error: unrecognized arguments: {given}\n")
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------- options, one by one

# Each case of an option no other test passes: the command without the
# option, the option, what to read from the output directory, and what the
# library call returns for the option's value.


def _config_dir_case(tmp_path, trace_csv):
    # A copy of aws_lambda.yaml, under another platform's name, bills as AWS.
    configs = tmp_path / "configs"
    configs.mkdir()
    shutil.copy(resolve_platform_path("aws_lambda"), configs / "gcp_cloudrun_functions.yaml")
    config = resolve_platform("aws_lambda")
    totals = [
        usd_string(compute_cost(record, config, normalize_allocation(
            ResourceAllocation(record.alloc_vcpus, record.alloc_memory_mb), config)).total_usd)
        for record in ingest_trace(trace_csv)
    ]
    return (["bill", "--platform", "gcp_cloudrun_functions", "--records", trace_csv],
            ["--config-dir", configs],
            lambda out: [row["total_usd"] for row in read_rows(out / "bills.csv")], totals)


def _slice_case(tmp_path, trace_csv):
    timeline = simulate(TaskSpec("33.1"),
                        BandwidthControlConfig("20", "5", slice_ms="0.5", flavor="eevdf"))
    return (["simulate", "--t", "33.1", "--p", "20", "--q", "5", "--flavor", "eevdf"],
            ["--slice-ms", "0.5"],
            lambda out: json.loads((out / "timeline.json").read_text())["segments"],
            timeline.as_dict()["segments"])


def _replay_case(option, value):
    def case(tmp_path, trace_csv):
        timeline = simulate(TaskSpec("200"), BandwidthControlConfig("20", "15"))
        knobs = {"gap_threshold_us": 500, "step_us": 50, option: value}
        probe = ProbeConfig(timeline.completion_ms, gap_threshold_us=knobs["gap_threshold_us"])
        events = replay_probe(timeline, probe, step_us=knobs["step_us"]).events
        return (["profile", "replay", "--t", "200", "--p", "20", "--q", "15"],
                ["--" + option.replace("_", "-"), value],
                lambda out: events_from_csv(str(out / "events.csv")), list(events))
    return case


def _roundup_cutoff_case(tmp_path, trace_csv):
    policies = [RoundingPolicy(f"{gran}ms_min50.0ms", float(gran), 50.0) for gran in ("1", "100")]
    stats = rounding_up_stats(ingest_trace(trace_csv), policies)
    return (["analyze", "--trace", trace_csv, "--analyses", "roundup"],
            ["--roundup-cutoff-ms", 50],
            lambda out: [(row["policy"], float(row["mean_time_roundup_ms"]))
                         for row in read_rows(out / "rounding_up.csv")],
            [(s.policy.name, s.mean_time_roundup_ms) for s in stats])


def _drop_zero_cpu_case(tmp_path, trace_csv):
    # The generator draws no zero CPU usage: every third row's is zeroed here.
    header, *rows = trace_csv.read_text().splitlines()
    cpu = header.split(",").index("cpu_usage_avg_vcpus")
    for i in range(0, len(rows), 3):
        cells = rows[i].split(",")
        cells[cpu] = "0.000000"
        rows[i] = ",".join(cells)
    trace = tmp_path / "zero_cpu.csv"
    trace.write_text("\n".join([header, *rows]) + "\n")
    records = list(ingest_trace(trace, drop_zero_cpu=True))
    return (["analyze", "--trace", trace, "--analyses", "correlation"], ["--drop-zero-cpu"],
            lambda out: json.loads((out / "report.json").read_text())["correlation"],
            utilization_correlation(records, seed=0).as_dict())


_OPTION_CASES = {
    "config-dir": _config_dir_case,
    "slice-ms": _slice_case,
    "gap-threshold-us": _replay_case("gap_threshold_us", 5500),
    "step-us": _replay_case("step_us", 200),
    "roundup-cutoff-ms": _roundup_cutoff_case,
    "drop-zero-cpu": _drop_zero_cpu_case,
}


@pytest.mark.parametrize("case", _OPTION_CASES)
def test_an_option_changes_the_output_as_the_library_does(case, tmp_path, trace_csv):
    argv, option, read, expected = _OPTION_CASES[case](tmp_path, trace_csv)
    outputs = []
    for given in (option, []):
        out = tmp_path / ("given" if given else "left-out")
        assert run(*argv, *given, "--out-dir", out) == 0
        outputs.append(read(out))
    assert outputs[0] == expected
    assert outputs[0] != outputs[1]


def _child_env() -> dict:
    """The environment of a child interpreter that imports what this one does."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def test_cli_import_leaves_numpy_out(tmp_path, trace_csv):
    code = "import sys, faascost.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=_child_env(), check=True)
    assert result.stdout.strip() == "False"
    # With NumPy blocked, one command of each kind runs to the end: NumPy is
    # a requirement of the test extra only.
    events = tmp_path / "replay" / "events.csv"
    commands = {
        "analyze": ["analyze", "--trace", trace_csv,
                    "--platforms", "aws_lambda,gcp_cloudrun_functions"],
        "bill": ["bill", "--platform", "aws_lambda", "--records", trace_csv],
        "sweep": ["simulate", "--t", "33.1", "--p", "10,20", "--grid", "20", "--breakpoints"],
        "replay": ["profile", "replay", "--t", "200", "--p", "20", "--q", "5"],
        "fingerprint": ["profile", "analyze", "--in", events],
        "report": ["profile", "report", "--in", events],
    }
    argvs = [[*map(str, argv), "--out-dir", str(tmp_path / name)]
             for name, argv in commands.items()]
    code = ("import json, sys; sys.modules['numpy'] = None; from faascost.cli import main; "
            f"print(json.dumps([main(argv) for argv in {argvs!r}]))")
    assert _fresh_python(code, tmp_path) == [0] * len(argvs)


def test_text_files_are_utf8_whatever_the_locale(tmp_path, trace_csv):
    # Ingest reads UTF-8, so a non-ASCII function id must reach bills.csv in
    # UTF-8 too. With each use of the locale's encoding an error, every
    # command that writes or reads back text runs to the end.
    trace = tmp_path / "trace.csv"
    header, *rows = trace_csv.read_text(encoding="utf-8").splitlines()
    trace.write_text("\n".join([header, *("fünc-λ-" + row for row in rows)]) + "\n",
                     encoding="utf-8")
    replay = tmp_path / "replay"
    commands = [
        ["bill", "--platform", "aws_lambda", "--records", trace],
        ["analyze", "--trace", trace, "--analyses", "inflation,correlation,cold-start,roundup",
         "--platforms", "aws_lambda,gcp_cloudrun_functions"],
        ["profile", "replay", "--t", "200", "--p", "20", "--q", "5"],
        # Reads the replay's probe_summary.json beside its events.
        ["profile", "analyze", "--in", replay / "events.csv"],
    ]
    names = ["bill", "analyze", "replay", "fingerprint"]
    argvs = [[*map(str, argv), "--out-dir", str(tmp_path / name)]
             for name, argv in zip(names, commands)]
    code = ("import json; from faascost.cli import main; "
            f"print(json.dumps([main(argv) for argv in {argvs!r}]))")
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", code], capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [0] * len(argvs)
    with open(tmp_path / "bill" / "bills.csv", encoding="utf-8", newline="") as fh:
        bills = list(csv.DictReader(fh))
    assert len(bills) == len(rows)
    assert all(b["function_id"].startswith("fünc-λ-f") for b in bills)
    # Under an ASCII locale, with UTF-8 mode and locale coercion off, a table
    # written to stdout holds the bytes of the file under --out-dir.
    env = {**_child_env(), "PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    env.pop("PYTHONIOENCODING", None)
    result = subprocess.run(
        [sys.executable, "-m", "faascost.cli", *map(str, commands[0])],
        capture_output=True, env=env, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (tmp_path / "bill" / "bills.csv").read_bytes()


# ------------------------------------------------------------ lazy layers

_ROOT = Path(__file__).resolve().parents[1]
# ``_hashlib`` is OpenSSL, which no command maps: ``run.json``'s digests come from
# the interpreter's own SHA-256. Each command loads its own module of
# ``faascost.commands`` and no other.
_COMMANDS = tuple(f"faascost.commands.{name}"
                  for name in ("bill", "analyze", "simulate", "profile"))
_LAYERS = ("yaml", "faascost.billing", "faascost.traces", "faascost.traces.analysis",
           "faascost.sched", "faascost.sched.sweep", "faascost.profiler",
           "faascost.profiler.fingerprint", "faascost.profiler.probes", "statistics",
           "fractions", "_hashlib", "dataclasses", "inspect", *_COMMANDS)


def _fresh_python(code: str, cwd: Path) -> dict:
    """Run ``code`` in a new interpreter that imports what this one does; its
    last line is JSON."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_child_env(), cwd=cwd, check=True)
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_bill_records_reads_a_piped_trace(compress, trace_csv, capsys):
    assert run("bill", "--platform", "aws_lambda", "--records", trace_csv) == 0
    want = capsys.readouterr().out
    data = trace_csv.read_bytes()
    argv = ["bill", "--platform", "aws_lambda", "--records", "/dev/stdin"]
    result = subprocess.run([sys.executable, "-m", "faascost.cli", *argv],
                            input=gzip.compress(data) if compress else data,
                            capture_output=True, env=_child_env(), check=True)
    assert result.stdout.decode() == want and len(want.splitlines()) == 101


def test_manifest_digests_regular_files_and_no_stream(tmp_path, trace_csv):
    # A pipe's bytes are gone once the run has read them: its digest is null,
    # never that of an empty stream. Stdin redirected from a file is the file.
    argv = [sys.executable, "-m", "faascost.cli", "bill", "--platform", "aws_lambda",
            "--records", "/dev/stdin", "--out-dir"]
    child = {"capture_output": True, "env": _child_env(), "cwd": tmp_path, "check": True}
    head = b"".join(trace_csv.read_bytes().splitlines(keepends=True)[:50])
    subprocess.run([*argv, "piped"], input=head, **child)
    with open(trace_csv, "rb") as fh:
        subprocess.run([*argv, "redirected"], stdin=fh, **child)
    digests = [json.loads((tmp_path / name / "run.json").read_text())["input_digests"]
               for name in ("piped", "redirected")]
    assert digests == [{"/dev/stdin": None},
                       {"/dev/stdin": hashlib.sha256(trace_csv.read_bytes()).hexdigest()}]


@pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib-fallback"])
@pytest.mark.parametrize("size", [0, 1 << 16, (1 << 20) + 4097], ids=["empty", "64KiB", "1MiB+"])
def test_digest_is_the_sha256_of_the_file(size, builtin, tmp_path, monkeypatch):
    path = tmp_path / "input"
    path.write_bytes(random.Random(size).randbytes(size))
    want = hashlib.sha256(path.read_bytes()).hexdigest()
    if not builtin:  # a CPython built without its own SHA-256 modules
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)
    calls = []
    monkeypatch.setattr(hashlib, "sha256", lambda *a: calls.append(a) or hashlib.new("sha256"))
    assert _digest(path) == want
    assert calls == ([] if builtin else [()])


def test_runpy_runs_the_cli_in_a_namespace_of_its_own(tmp_path, capsys):
    # ``python -m cProfile -m faascost.cli`` runs the module this way: its
    # globals are not those of the ``__main__`` module in sys.modules.
    argv = ["simulate", "--t", "10", "--p", "20", "--q", "5"]
    assert run(*argv) == 0
    code = ("import runpy, sys\n"
            f"sys.argv = ['faascost.cli', *{argv!r}]\n"
            "runpy.run_module('faascost.cli', run_name='__main__')\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_child_env(), cwd=tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bill", "--platform", "aws_lambda", "--records", "TRACE"],
    ["analyze", "--trace", "TRACE", "--out-dir", "out"],
    ["simulate", "--t", "10", "--p", "20", "--q", "5"],
    ["profile", "replay", "--t", "200", "--p", "20", "--q", "5"],
    ["profile", "report", "--in", "EVENTS"],
], ids=["bill-records", "analyze", "simulate", "profile-replay", "profile-report"])
def test_python_m_imports_the_cli_once(argv, tmp_path, trace_csv, events_csv):
    # Each command module imports faascost.cli, which under -m is __main__:
    # an import that found no faascost.cli in sys.modules would run cli.py a
    # second time. -X importtime logs a module loaded by an import statement,
    # not one loaded through importlib.import_module, as the layers and the
    # command modules are: the control is faascost.checked, which each
    # command's layers import.
    files = {"TRACE": trace_csv, "EVENTS": events_csv}
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "faascost.cli",
                             *[str(files.get(a, a)) for a in argv]],
                            capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
                            check=True)
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]
    assert "faascost.checked" in imported and "faascost.cli" not in imported


_BILL, _ANALYZE_COMMAND, _SIMULATE, _PROFILE = _COMMANDS
_SWEEP = {"faascost.sched", "faascost.sched.sweep", _SIMULATE}
# No command loads ``fractions`` or ``statistics``: exact arithmetic is in
# integers and Decimals, and the fingerprint takes its median by hand.
_ANALYZE = {"faascost.billing", "faascost.traces", "faascost.traces.analysis", "yaml",
            _ANALYZE_COMMAND}
_FINGERPRINT = {"faascost.profiler", "faascost.profiler.fingerprint", _PROFILE}
_LOADS = {
    "simulate-sweep": (["simulate", "--t", "10", "--p", "5,20", "--grid", "10",
                        "--breakpoints"], _SWEEP),
    "simulate-timeline": (["simulate", "--t", "33.1", "--p", "20", "--q", "1.45"],
                          {"faascost.sched", _SIMULATE}),
    # The replay configures its timeline as simulate does, without its module.
    "profile-replay": (["profile", "replay", "--t", "200", "--p", "20", "--q", "5"],
                       {"faascost.sched", "faascost.profiler", "faascost.profiler.probes",
                        _PROFILE}),
    "profile-analyze": (["profile", "analyze", "--in", "EVENTS"], _FINGERPRINT),
    "profile-report": (["profile", "report", "--in", "EVENTS"], _FINGERPRINT),
    "profile-report-reference": (
        ["profile", "report", "--in", "EVENTS", "--reference", "REFERENCE"],
        {*_FINGERPRINT, "yaml"}),
    "bill": (["bill", "--platform", "aws_lambda", "--mem-mb", "128", "--exec-ms", "96"],
             {"faascost.billing", "faascost.traces", "yaml", _BILL}),
    "bill-records": (["bill", "--platform", "aws_lambda", "--records", "TRACE"],
                     {"faascost.billing", "faascost.traces", "yaml", _BILL}),
    "analyze": (["analyze", "--trace", "TRACE"], _ANALYZE),
    # The schema's keys are checked against SchemaMap._fields.
    "analyze-schema": (["analyze", "--trace", "TRACE", "--schema", "SCHEMA"], _ANALYZE),
    "version": (["--version"], set()),
}


@pytest.mark.parametrize("argv, layers", _LOADS.values(), ids=_LOADS)
def test_command_imports_only_its_layers(argv, layers, tmp_path, trace_csv, events_csv):
    reference = tmp_path / "ref.yaml"
    reference.write_text("lab:\n  period_ms: 20\n  tick_hz: 250\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(default_schema_map()._asdict()))
    files = {"TRACE": trace_csv, "EVENTS": events_csv, "REFERENCE": reference, "SCHEMA": schema}
    argv = [str(files.get(a, a)) for a in argv]
    if argv != ["--version"]:
        argv += ["--out-dir", "tmp"]
    code = f"""
import json, sys
from faascost.cli import main
try:
    code = main({argv!r})
except SystemExit as exc:
    code = exc.code
print(json.dumps({{"code": code, "loaded": [m for m in {_LAYERS!r} if m in sys.modules]}}))
"""
    result = _fresh_python(code, tmp_path)
    assert (result["code"], set(result["loaded"])) == (0, layers)


@pytest.mark.parametrize("package", ["traces", "sched", "profiler"])
def test_package_binds_each_name_on_first_read(package, tmp_path):
    # Each public name is imported from the submodule its table names on
    # first read, whichever order the names are first read in; once every
    # submodule is loaded, each name is still that object.
    code = """
import json, sys, types
import faascost.{package} as package
loaded = [m for m in sys.modules if m.startswith("faascost.{package}.")]
names = package.__all__[::{step}]

def wrong():
    bad = []
    for name in names:
        value = getattr(package, name)
        owner = sys.modules["faascost.{package}." + package._SUBMODULES[name]]
        if value is not getattr(owner, name) or isinstance(value, types.ModuleType):
            bad.append(name)
    return bad

wrong_on_first_read, wrong_after = wrong(), wrong()
try:
    package.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({{"loaded": loaded, "wrong": wrong_on_first_read + wrong_after,
                  "missing": missing, "all": package.__all__,
                  "table": sorted(package._SUBMODULES)}}))
"""
    for step in (1, -1):
        result = _fresh_python(code.format(package=package, step=step), tmp_path)
        assert result["loaded"] == [] and result["wrong"] == [], step
        assert result["all"] == result["table"]
        assert result["missing"] == f"module 'faascost.{package}' has no attribute 'no_such_name'"
    # No public name is also a submodule's name, which importing that
    # submodule would bind over the name; billing, which imports eagerly, too.
    for name in (package, "billing"):
        module = importlib.import_module(f"faascost.{name}")
        submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
        assert submodules and not submodules & set(module.__all__), name


def test_tracer_patches_reach_the_commands(tmp_path, trace_csv, events_csv):
    # perfbench/tracing.py reads and replaces these names on faascost.cli
    # before any command has run; each must be readable then, and a patch
    # must be what each command module calls.
    source = (_ROOT / "perfbench" / "tracing.py").read_text()
    names = sorted(set(re.findall(r't\.patch\(cli, "(\w+)"', source)))
    assert "simulate" in names and len(names) >= 17
    commands = [
        ["simulate", "--t", "33.1", "--p", "20", "--q", "1.45"],
        ["bill", "--platform", "aws_lambda", "--records", str(trace_csv)],
        ["profile", "replay", "--t", "200", "--p", "20", "--q", "5"],
        ["profile", "analyze", "--in", str(events_csv)],
    ]
    code = f"""
import json
import faascost.sched
from faascost import cli

calls = dict.fromkeys(
    ("simulate", "closed_form_duration", "compute_cost", "replay_probe", "analyze_events"), 0)

def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

# Set before its layer is bound: binding the layer must keep the patch.
cli.closed_form_duration = counting(
    "closed_form_duration", faascost.sched.closed_form_duration)
unreadable = [name for name in {names!r} if not hasattr(cli, name)]
for name in ("simulate", "compute_cost", "replay_probe", "analyze_events"):
    setattr(cli, name, counting(name, getattr(cli, name)))
runs = []
for i, argv in enumerate({commands!r}):
    before = dict(calls)
    code = cli.main([*argv, "--out-dir", f"out{{i}}"])
    runs.append([code, sorted(name for name in calls if calls[name] > before[name])])
print(json.dumps({{"unreadable": unreadable, "runs": runs}}))
"""
    assert _fresh_python(code, tmp_path) == {"unreadable": [], "runs": [
        [0, ["closed_form_duration", "simulate"]],
        [0, ["compute_cost"]],
        [0, ["replay_probe", "simulate"]],
        [0, ["analyze_events"]],
    ]}


_ANALYZE_LAYERS = ("ingest_trace", "inflation_analysis", "utilization_correlation",
                   "cold_start_differential", "rounding_up_stats")


def test_tracer_patches_reach_every_analysis(monkeypatch, tmp_path, trace_csv):
    # perfbench/tracing.py times analyze through these five names; a run in
    # which one is never called would report no figure for its layer.
    from faascost import cli

    calls = dict.fromkeys(_ANALYZE_LAYERS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _ANALYZE_LAYERS:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    assert run("analyze", "--trace", trace_csv, "--out-dir", tmp_path,
               "--analyses", "inflation,correlation,cold-start,roundup",
               "--platforms", "aws_lambda,gcp_cloudrun_functions") == 0
    assert calls == {**dict.fromkeys(_ANALYZE_LAYERS, 1), "inflation_analysis": 2}


def test_analyze_frees_each_inflation_report_before_the_next_pass(monkeypatch, tmp_path,
                                                                  trace_csv):
    # A report holds its exact value distributions, up to KEYS_CAP values
    # each: analyze keeps only its doc, and hands its consumed totals on.
    from faascost import cli

    analyze = cli.inflation_analysis
    held = []
    actuals = []

    def wrapper(records, config, **kwargs):
        assert [ref() for ref in held] == [None] * len(held), config.name
        actuals.append(kwargs.get("actual"))
        report = analyze(records, config, **kwargs)
        held[:] = [weakref.ref(d) for d in (report.vcpu_s_sketch, report.gb_s_sketch)
                   if d is not None]
        if len(actuals) == 1:
            actuals.append((report.actual_vcpu_s_total, report.actual_gb_s_total))
        return report

    monkeypatch.setattr(cli, "inflation_analysis", wrapper)
    assert run("analyze", "--trace", trace_csv, "--out-dir", tmp_path,
               "--platforms", "aws_lambda,gcp_cloudrun_functions,cloudflare_workers") == 0
    first, totals, *later = actuals
    assert first is None and later == [totals, totals]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "faascost" in capsys.readouterr().out
