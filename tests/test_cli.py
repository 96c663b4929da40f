"""End-to-end checks of the command line against the library."""

import argparse
import csv
import gzip
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from faascost.billing import compute_cost, normalize_allocation, resolve_platform
from faascost.billing.model import allocation
from faascost.cli import _write_json_array, build_parser, main
from faascost.money import dec, usd_string
from faascost.sched import TaskSpec, closed_form_duration
from faascost.traces import (
    generate_synthetic_trace,
    ingest_trace,
    utilization_correlation,
)


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
        asked = allocation(record.alloc_vcpus, record.alloc_memory_mb)
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


def test_bill_unknown_platform_fails(capsys):
    assert run("bill", "--platform", "nope_cloud", "--exec-ms", 1) == 1
    assert "nope_cloud" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["bill", "--platform", "aws_lambda", "--vcpus", "abc", "--mem-mb", 128, "--exec-ms", 10],
    ["bill", "--platform", "aws_lambda", "--mem-mb", "inf", "--exec-ms", 10],
    ["bill", "--platform", "aws_lambda", "--mem-mb", "nan", "--exec-ms", 10],
    ["simulate", "--t", "nan", "--p", "20", "--q", "5"],
    ["simulate", "--t", "inf", "--p", "20", "--q", "5"],
    ["simulate", "--t", "10", "--p", "20", "--q", "abc"],
    ["bill", "--platform", "aws_lambda", "--mem-mb", "1e250", "--exec-ms", 1],
    ["bill", "--platform", "aws_lambda", "--mem-mb", 128, "--exec-ms", "1e250"],
], ids=["vcpus-abc", "mem-inf", "mem-nan", "t-nan", "t-inf", "q-abc", "mem-1e250",
        "exec-1e250"])
def test_bad_number_fails_cleanly(argv, capsys):
    assert run(*argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


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
    points = utilization_correlation(list(ingest_trace(trace_csv)), seed=3).scatter
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


def test_simulate_closed_form_only_matches_formula(tmp_path):
    out = tmp_path / "out"
    assert run("simulate", "--t", "33.1", "--p", "20", "--grid", 40,
               "--closed-form-only", "--out-dir", out) == 0
    rows = read_rows(out / "duration_curve_p20.csv")
    task = TaskSpec(cpu_time_ms="33.1")
    for row in rows:
        expected = closed_form_duration(task, "20", row["quota_ms"])
        assert float(row["completion_ms"]) == pytest.approx(expected, rel=1e-12)


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


def test_simulate_ideal_is_one_column_in_both_modes(tmp_path):
    tables = []
    for flag in ("--exact-accounting", "--closed-form-only"):
        out = tmp_path / flag
        assert run("simulate", flag, "--t", "33.4", "--p", "5", "--grid", 7,
                   "--out-dir", out) == 0
        rows = read_rows(out / "duration_curve_p5.csv")
        tables.append([(r["f"], r["quota_ms"], r["completion_ms"], r["ideal_ms"])
                       for r in rows])
    assert tables[0] == tables[1]


def test_simulate_breakpoints_output(tmp_path):
    out = tmp_path / "out"
    assert run("simulate", "--t", "160", "--p", "20", "--grid", 120,
               "--breakpoints", "--mem-per-vcpu-mb", 1769, "--out-dir", out) == 0
    rows = read_rows(out / "breakpoints_p20.csv")
    assert rows, "a 160 ms task over a 120-point grid has quantization steps"
    for row in rows:
        assert float(row["memory_mb"]) == pytest.approx(float(row["fraction"]) * 1769)


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


def test_simulate_closed_form_only_rejects_sub_us_quota_like_sweep(tmp_path, capsys):
    errors = []
    for flag in ([], ["--closed-form-only"]):
        assert run("simulate", "--t", "100", "--p", "0.1", "--grid", 3,
                   "--f-lo", "0.001", *flag, "--out-dir", tmp_path / "out") == 1
        errors.append(capsys.readouterr().err)
    assert "fraction 0.001 yields a quota below 1 us" in errors[0]
    assert errors[1] == errors[0]


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
               "--out", out / "events.csv") == 0
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
], ids=["missing-key", "not-a-mapping"])
def test_profile_report_bad_reference_fails(tmp_path, events_csv, capsys, table, named):
    reference = tmp_path / "ref.yaml"
    reference.write_text(table)
    assert run("profile", "report", "--in", events_csv, "--reference", reference) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lab" in err and named in err


def test_profile_out_creates_missing_out_dir(tmp_path):
    events = tmp_path / "events" / "events.csv"
    out = tmp_path / "missing"
    assert run("profile", "replay", "--t", "200", "--p", "20", "--q", "5",
               "--out", events, "--out-dir", out) == 0
    assert (events.parent / "probe_summary.json").exists()
    manifest = json.loads((out / "run.json").read_text())
    # Outputs are named relative to the manifest's directory.
    assert manifest["outputs"] == ["../events/events.csv", "../events/probe_summary.json"]


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
    "profile-replay-out": ["profile", "replay", "--t", "200", "--p", "20", "--q", "5",
                           "--out", "ELSEWHERE"],
    "profile-analyze": ["profile", "analyze", "--in", "EVENTS"],
    "profile-report": ["profile", "report", "--in", "EVENTS", "--reference", "REFERENCE"],
}


@pytest.mark.parametrize("argv", _MANIFEST_CASES.values(), ids=_MANIFEST_CASES)
def test_manifest_matches_directory(argv, tmp_path, trace_csv, events_csv):
    reference = tmp_path / "ref.yaml"
    reference.write_text("lab:\n  period_ms: 20\n  tick_hz: 250\n")
    files = {"TRACE": trace_csv, "EVENTS": events_csv, "REFERENCE": reference}
    elsewhere = tmp_path / "x3" / "events.csv"
    out = tmp_path / "out"
    assert run(*[files.get(a, elsewhere if a == "ELSEWHERE" else a) for a in argv],
               "--out-dir", out) == 0
    manifest = json.loads((out / "run.json").read_text())
    # Every output is listed by its path relative to the manifest's directory.
    written = {p for p in out.iterdir() if p.name != "run.json"}
    if "ELSEWHERE" in argv:
        written |= {elsewhere, elsewhere.with_name("probe_summary.json")}
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
    assert run("simulate", "--t", "33.1", "--p", "20", "--q", "1.45",
               "--out-dir", tmp_path / "s") == 0
    assert json.loads((tmp_path / "a" / "run.json").read_text())["seed"] == 5
    assert json.loads((tmp_path / "s" / "run.json").read_text())["seed"] is None


@pytest.mark.parametrize("rows", [[], [{}], [{"b": [1.5, "x\ny"], "a": None}, {"c": {"d": 1}}]],
                         ids=["empty", "empty-row", "nested"])
def test_json_array_streams_the_bytes_of_one_dump(rows):
    out = io.StringIO()
    _write_json_array(out, iter(rows))
    assert out.getvalue() == json.dumps(rows, indent=2, sort_keys=True) + "\n"


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


def _child_env() -> dict:
    """The environment of a child interpreter that imports what this one does."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def test_cli_import_leaves_numpy_out():
    code = "import sys, faascost.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=_child_env(), check=True)
    assert result.stdout.strip() == "False"


# ------------------------------------------------------------ lazy layers

_ROOT = Path(__file__).resolve().parents[1]
# ``_hashlib`` is OpenSSL, which only a command with an input to digest maps.
_LAYERS = ("yaml", "faascost.billing", "faascost.traces", "faascost.traces.analysis",
           "faascost.sched", "faascost.profiler", "_hashlib")


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


_LOADS = {
    "simulate-sweep": (["simulate", "--t", "10", "--p", "5,20", "--grid", "10",
                        "--breakpoints"], {"faascost.sched"}),
    "simulate-timeline": (["simulate", "--t", "33.1", "--p", "20", "--q", "1.45"],
                          {"faascost.sched"}),
    "profile-replay": (["profile", "replay", "--t", "200", "--p", "20", "--q", "5"],
                       {"faascost.sched", "faascost.profiler"}),
    "profile-analyze": (["profile", "analyze", "--in", "EVENTS"],
                        {"faascost.sched", "faascost.profiler", "_hashlib"}),
    "profile-report": (["profile", "report", "--in", "EVENTS"],
                       {"faascost.sched", "faascost.profiler", "_hashlib"}),
    "profile-report-reference": (
        ["profile", "report", "--in", "EVENTS", "--reference", "REFERENCE"],
        {"faascost.sched", "faascost.profiler", "yaml", "_hashlib"}),
    "bill": (["bill", "--platform", "aws_lambda", "--mem-mb", "128", "--exec-ms", "96"],
             {"faascost.billing", "faascost.traces", "yaml"}),
    "bill-records": (["bill", "--platform", "aws_lambda", "--records", "TRACE"],
                     {"faascost.billing", "faascost.traces", "yaml", "_hashlib"}),
    "analyze": (["analyze", "--trace", "TRACE"],
                {"faascost.billing", "faascost.traces", "faascost.traces.analysis", "yaml",
                 "_hashlib"}),
    "version": (["--version"], set()),
}


@pytest.mark.parametrize("argv, layers", _LOADS.values(), ids=_LOADS)
def test_command_imports_only_its_layers(argv, layers, tmp_path, trace_csv, events_csv):
    reference = tmp_path / "ref.yaml"
    reference.write_text("lab:\n  period_ms: 20\n  tick_hz: 250\n")
    files = {"TRACE": trace_csv, "EVENTS": events_csv, "REFERENCE": reference}
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


def test_traces_package_loads_each_name_from_its_submodule(tmp_path):
    code = """
import json, sys
import faascost.traces as traces
from faascost.traces import InvocationRecord
loaded = sorted(m for m in sys.modules if m.startswith("faascost.traces."))
names = {name: getattr(traces, name).__module__ for name in traces.__all__}
from faascost.traces import sketch
try:
    traces.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"loaded": loaded, "names": names, "sketch": sketch.__name__,
                  "missing": missing}))
"""
    result = _fresh_python(code, tmp_path)
    assert result["loaded"] == ["faascost.traces.records"]
    assert len(result["names"]) == 17
    for name, module in result["names"].items():
        assert module.startswith("faascost.traces."), name
    assert result["sketch"] == "faascost.traces.sketch"
    assert "no_such_name" in result["missing"]


def test_tracer_patches_reach_the_commands(tmp_path):
    # perfbench/tracing.py reads and replaces these names on faascost.cli
    # before any command has run; each must be readable then, and a patch
    # must be what the command calls.
    source = (_ROOT / "perfbench" / "tracing.py").read_text()
    names = sorted(set(re.findall(r't\.patch\(cli, "(\w+)"', source)))
    assert "simulate" in names and len(names) >= 17
    code = f"""
import json
import faascost.sched
from faascost import cli

calls = {{"simulate": 0, "closed_form_duration": 0}}

def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

# Set before its layer is bound: binding the layer must keep the patch.
cli.closed_form_duration = counting(
    "closed_form_duration", faascost.sched.closed_form_duration)
unreadable = [name for name in {names!r} if not hasattr(cli, name)]
cli.simulate = counting("simulate", cli.simulate)
code = cli.main(["simulate", "--t", "33.1", "--p", "20", "--q", "1.45", "--out-dir", "tmp"])
print(json.dumps({{"code": code, "unreadable": unreadable, "calls": calls}}))
"""
    assert _fresh_python(code, tmp_path) == {
        "code": 0, "unreadable": [], "calls": {"simulate": 1, "closed_form_duration": 1}}


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "faascost" in capsys.readouterr().out
