"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test states its bound up front and prints the measured value so a
failing run shows how far off it was. Two tests are gated on resources
that are not part of the default environment:

- the external-trace reproduction needs ``FAASCOST_HUAWEI_DAY1`` pointing
  at the day-1 trace CSV (optionally gzipped), already mapped to the
  canonical column layout or accompanied by a schema file named in
  ``FAASCOST_HUAWEI_SCHEMA``;
- the live-probe integration needs Linux, ``FAASCOST_CGROUP_LIVE=1``, and
  the current cgroup capped at quota 1.45 ms per 20 ms period.
"""

import csv
import json
import math
import os
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from faascost import cli
from faascost.billing import (
    compute_cost,
    fee_equivalent_walltime,
    normalize_allocation,
    resolve_platform,
)
from faascost.billing.model import ResourceAllocation
from faascost.money import micros
from faascost.profiler import ProbeConfig, analyze_events, probe, replay_probe
from faascost.sched import (
    BandwidthControlConfig,
    TaskSpec,
    duration_curve,
    fraction_grid,
    quantization_breakpoints,
    simulate,
)
from faascost.traces import (
    RoundingPolicy,
    cold_start_differential,
    default_schema_map,
    generate_synthetic_trace,
    ingest_trace,
    inflation_analysis,
    rounding_up_stats,
    utilization_correlation,
)

from genpairs import invoice_view, random_pair
from oracle_invoice import reference_cost
from oracle_profiler import stream_identifies
from oracle_sched import oracle_completion_ms
from oracle_traces import oracle_inflation_totals


# --------------------------------------------------- 1: billing oracle


def test_criterion_1_billing_matches_oracle_on_1e4_pairs():
    """10^4 random (record, config) pairs, decimal-string exact, < 10 s."""
    rng = random.Random(424242)
    started = time.perf_counter()
    for _ in range(10_000):
        record, config, alloc = random_pair(rng)
        got = compute_cost(record, config, alloc).as_dict()
        want = reference_cost(invoice_view(record, alloc), config)
        assert Fraction(got["billable_time_ms"]) == want["billable_time_ms"]
        assert got["total_usd"] == want["total_usd"]
        assert got["fee_usd"] == want["fee_usd"]
        for resource, term in got["alloc_terms"].items():
            assert term["usd"] == want["alloc_terms"][resource]
        for resource, term in got["usage_terms"].items():
            assert term["usd"] == want["usage_terms"][resource]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f} s"
    print(f"criterion 1: 10^4 pairs exact in {elapsed:.2f} s")


# --------------------------------------------- 2: fee-equivalent walltime


def test_criterion_2_fee_equivalent_walltime_128mb():
    """The AWS-style fee equals the charge for 96 ms +- 0.5 ms at 128 MB."""
    config = resolve_platform("aws_lambda")
    alloc = normalize_allocation(ResourceAllocation(memory_mb=128), config)
    walltime = float(fee_equivalent_walltime(config, alloc))
    assert walltime == pytest.approx(96.0, abs=0.5)
    print(f"criterion 2: fee-equivalent walltime {walltime:.4f} ms")


# ------------------------------------------ 3: closed form vs simulator


def test_criterion_3_continuous_simulation_equals_closed_form():
    """100 random terminating-decimal triples, exact completion equality."""
    rng = random.Random(99)
    for _ in range(100):
        q_us = rng.randint(1, 50_000)
        p_us = rng.randint(q_us, 120_000)
        t_us = rng.randint(1, min(150_000, q_us * 400))

        def ms(us: int) -> str:
            return f"{us // 1000}.{us % 1000:03d}"

        timeline = simulate(
            TaskSpec(ms(t_us)),
            BandwidthControlConfig(period_ms=ms(p_us), quota_ms=ms(q_us)),
            lagged_accounting=False,
        )
        want_us = oracle_completion_ms(
            Fraction(t_us, 1000), Fraction(p_us, 1000), Fraction(q_us, 1000)
        ) * 1000
        assert want_us.denominator == 1
        assert timeline.completion_us == want_us
    print("criterion 3: 100 triples exact")


# ------------------------------------------------ 4: throttle pathology


def test_criterion_4_lagged_accounting_pathology():
    """P=20 ms, Q=1.45 ms, 250 Hz: 4/36/4/56 ms segments, exact bounds."""
    timeline = simulate(
        TaskSpec(500),
        BandwidthControlConfig(period_ms=20, quota_ms=1.45, tick_hz=250),
    )
    opening = [
        (seg.start_us, seg.end_us, seg.state) for seg in timeline.segments[:4]
    ]
    assert opening == [
        (0, 4_000, "running"),
        (4_000, 40_000, "throttled"),
        (40_000, 44_000, "running"),
        (44_000, 100_000, "throttled"),
    ]
    print("criterion 4: 4/36/4/56 ms opening reproduced")


# ------------------------------------------------- 5: deviation sweeps


def test_criterion_5_deviation_shrinks_with_period():
    """T=33.1 ms over 200 fractions: deviation strictly falls 80->5 ms,
    and completion is monotone nonincreasing in f for every period. < 5 s.
    """
    started = time.perf_counter()
    grid = fraction_grid(200)
    task = TaskSpec("33.1")
    deviations = []
    for period in (80, 40, 20, 10, 5):
        curve = duration_curve(task, period, grid, lagged_accounting=False)
        completions = [p.completion_ms for p in curve.points]
        for earlier, later in zip(completions, completions[1:]):
            assert later <= earlier + 1e-9, f"P={period}: not monotone"
        deviations.append(curve.max_relative_deviation())
    for bigger, smaller in zip(deviations, deviations[1:]):
        assert smaller < bigger
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"sweeps took {elapsed:.1f} s"
    devs = ", ".join(f"{d:.4f}" for d in deviations)
    print(f"criterion 5: max deviations [{devs}] in {elapsed:.2f} s")


# -------------------------------------------- 6: harmonic breakpoints


def test_criterion_6_breakpoints_are_harmonic():
    """T=160, P=20: breakpoints sit where ceil(T/(f P)) changes; memory
    sizes via 1769 MB/vCPU decrease with adjacent ratios near n/(n+1).
    """
    grid = fraction_grid(400)
    curve = duration_curve(TaskSpec(160), 20, grid, lagged_accounting=False)
    report = quantization_breakpoints(curve, mem_per_vcpu_mb=1769)
    assert len(report.breakpoints) > 20

    # Exactly the grid cells whose drop clears the detector threshold,
    # and each cell contains an integer boundary 8/k (T/P = 8).
    pts = curve.points
    expected = [
        cur.fraction
        for prev, cur in zip(pts, pts[1:])
        if prev.completion_ms - cur.completion_ms > 10
    ]
    assert report.fractions == expected
    left_of = {cur.fraction: prev.fraction for prev, cur in zip(pts, pts[1:])}
    for bp in report.breakpoints:
        prev_f = left_of[bp.fraction]
        assert math.floor(8 / prev_f - 1e-9) >= math.ceil(8 / bp.fraction - 1e-9)

    mems = list(reversed(report.memory_values_mb))
    assert all(later < earlier for earlier, later in zip(mems, mems[1:]))
    inferred = []
    for earlier, later in zip(mems, mems[1:]):
        ratio = later / earlier
        n = round(ratio / (1.0 - ratio))
        assert n >= 2
        assert ratio == pytest.approx(n / (n + 1), abs=3e-3)
        inferred.append(n)
    # Tail of the sequence steps through consecutive harmonics.
    tail = inferred[-30:]
    assert tail == list(range(tail[0], tail[0] - 30, -1))
    print(f"criterion 6: {len(mems)} memory sizes, harmonic tail to n={tail[-1]}")


# ------------------------------------------------ 7: profiler round trip


def test_criterion_7_profiler_round_trip_50_configs():
    """>= 50 identifiable random configs: P and HZ exact, Q within one
    tick interval. < 30 s including rejected draws.
    """
    rng = random.Random(3)
    started = time.perf_counter()
    checked = 0
    drawn = 0
    while checked < 50:
        drawn += 1
        assert drawn < 1000, "rejection sampling is not converging"
        p = rng.choice([5, 10, 20, 50, 100])
        q_us = max(1, round(rng.uniform(0.05, 0.9) * p * 1000))
        hz = rng.choice([100, 250, 300, 1000])
        t = max(400.0, 30 * p)
        timeline = simulate(
            TaskSpec(t),
            BandwidthControlConfig(
                period_ms=p, quota_ms=f"{q_us // 1000}.{q_us % 1000:03d}", tick_hz=hz
            ),
        )
        result = replay_probe(timeline, ProbeConfig(exec_duration_ms=t))
        if not stream_identifies(result.events, p, hz):
            continue
        checked += 1
        fp = analyze_events(result.events, result.total_runtime_ms)
        assert fp.period_ms_estimate == float(p)
        assert fp.tick_hz_estimate == hz
        assert abs(fp.quota_ms_estimate - q_us / 1000) <= 1000 / hz
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"round trips took {elapsed:.1f} s"
    print(f"criterion 7: {checked}/{drawn} configs in {elapsed:.2f} s")


# --------------------------------------------- 8: trace analytics oracle


@pytest.fixture(scope="module")
def big_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "trace.csv"
    ledger = generate_synthetic_trace(path, n_records=100_000, seed=0)
    records = list(ingest_trace(path))
    assert len(records) == 100_000
    return records, ledger


def test_criterion_8_inflation_means_match_oracle(big_trace):
    records, _ = big_trace
    for name in ("aws_lambda", "gcp_cloudrun_functions"):
        config = resolve_platform(name)
        granted = {}

        def mapper(rec):
            # The records share a handful of allocations: grant each once.
            asked = (rec.alloc_vcpus, rec.alloc_memory_mb)
            if asked not in granted:
                mapped = normalize_allocation(ResourceAllocation(*asked), config)
                granted[asked] = float(mapped.vcpus), float(mapped.memory_mb)
            return granted[asked]

        want_cpu, actual_cpu, want_mem, actual_mem = oracle_inflation_totals(
            records, config, mapper
        )
        report = inflation_analysis(records, config)
        assert report.mean_inflation_cpu == pytest.approx(
            want_cpu / actual_cpu, rel=1e-9
        )
        assert report.mean_inflation_mem == pytest.approx(
            want_mem / actual_mem, rel=1e-9
        )
        print(
            f"criterion 8 ({name}): CPU x{report.mean_inflation_cpu:.3f}, "
            f"memory x{report.mean_inflation_mem:.3f}"
        )


def test_criterion_8_planted_correlation(big_trace):
    records, ledger = big_trace
    result = utilization_correlation(records)
    assert result.n == 100_000
    assert result.pearson_r == pytest.approx(0.4, abs=0.01)
    assert result.pearson_r == pytest.approx(
        ledger["realized"]["utilization_corr"], abs=1e-6
    )
    print(f"criterion 8: Pearson r {result.pearson_r:.4f} (planted 0.4)")


def test_criterion_8_planted_nonpositive_fraction(big_trace):
    records, ledger = big_trace
    report = cold_start_differential(records)
    assert report.fraction_nonpositive == pytest.approx(0.42, abs=0.005)
    assert report.fraction_nonpositive == pytest.approx(
        ledger["realized"]["nonpositive_fraction"], abs=1e-12
    )
    print(f"criterion 8: nonpositive fraction {report.fraction_nonpositive:.4f}")


def test_criterion_8_roundup_means(big_trace):
    records, ledger = big_trace
    policy = RoundingPolicy("g100_mem", 100.0, mem_granularity_gb=0.125)
    stats = rounding_up_stats(records, [policy])[0]
    expected = ledger["planted"]["expected_time_roundup_ms"]["100.0"]
    assert expected == 49.5  # G - (1 + G) / 2 for G = 100
    assert stats.mean_time_roundup_ms == pytest.approx(expected, rel=0.02)
    assert stats.mean_time_roundup_ms == pytest.approx(
        ledger["realized"]["time_roundup_ms"]["100.0"], rel=1e-9
    )
    assert stats.mean_mem_roundup_gb_s == pytest.approx(
        ledger["realized"]["mem_roundup_gb_s"]["0.125"], rel=1e-9
    )
    print(
        f"criterion 8: roundup {stats.mean_time_roundup_ms:.3f} ms, "
        f"{stats.mean_mem_roundup_gb_s:.5f} GB-s"
    )


# ------------------------------------------- 9: external trace (gated)


HUAWEI_ENV = "FAASCOST_HUAWEI_DAY1"


@pytest.mark.skipif(
    not os.environ.get(HUAWEI_ENV),
    reason=f"set {HUAWEI_ENV} to the day-1 trace CSV to enable",
)
def test_criterion_9_external_trace_reproduction():
    """Published figures from the day-1 production trace, each +-5%.

    The trace streams through each analysis separately so the run stays
    within memory on tens of millions of rows. Zero-CPU requests are
    excluded, matching the published methodology.
    """
    path = os.environ[HUAWEI_ENV]
    schema_path = os.environ.get("FAASCOST_HUAWEI_SCHEMA")
    # Read as `faascost analyze --schema` reads it.
    schema = cli._load_schema(Path(schema_path)) if schema_path else None

    def records():
        return ingest_trace(path, schema, drop_zero_cpu=True)

    rel = 0.05
    gcp = inflation_analysis(records(), resolve_platform("gcp_cloudrun_functions"))
    assert gcp.mean_inflation_cpu == pytest.approx(3.99, rel=rel)
    assert gcp.mean_inflation_mem == pytest.approx(5.49, rel=rel)
    azure = inflation_analysis(
        records(), resolve_platform("azure_functions_consumption")
    )
    assert azure.mean_inflation_mem == pytest.approx(1.95, rel=rel)
    cloudflare = inflation_analysis(records(), resolve_platform("cloudflare_workers"))
    assert cloudflare.mean_inflation_cpu == pytest.approx(1.02, rel=rel)

    stats = rounding_up_stats(
        records(),
        [
            RoundingPolicy("g100", 100.0),
            RoundingPolicy("g1_min100_mem128", 1.0, 100.0, 0.125),
        ],
    )
    assert stats[0].mean_time_roundup_ms == pytest.approx(77.12, rel=rel)
    assert stats[1].mean_time_roundup_ms == pytest.approx(61.35, rel=rel)
    assert stats[1].mean_mem_roundup_gb_s == pytest.approx(2.67e-2, rel=rel)

    cold = cold_start_differential(records())
    assert cold.fraction_nonpositive == pytest.approx(0.421, rel=rel)


def test_criterion_9_schema_path_on_a_renamed_trace(tmp_path):
    """`faascost analyze --schema`, criterion 9's schema path, on a synthetic
    trace with renamed columns and durations in seconds: its counts and
    planted statistics are the generator's ledger."""
    source = tmp_path / "canonical.csv"
    ledger = generate_synthetic_trace(source, n_records=8_000, seed=9)
    renamed = tmp_path / "renamed.csv"
    with open(source, newline="") as fh, open(renamed, "w", newline="") as out:
        reader = csv.DictReader(fh)
        writer = csv.writer(out)
        writer.writerow([f"x_{name}" for name in reader.fieldnames])
        for row in reader:
            for name in ("exec_duration_ms", "init_duration_ms"):
                row[name] = format(Decimal(row[name]).scaleb(-3), "f")
            writer.writerow(row.values())
    columns = {field: f"x_{name}" for field, name in default_schema_map().columns.items()}
    schema_path = tmp_path / "schema.yaml"
    schema_path.write_text(yaml.safe_dump({"columns": columns, "duration_unit": "s"}))

    # Seconds with nine decimals read back as milliseconds off the 10^-6
    # grid, so the billing keys of these records come from exact quantities.
    schema = cli._load_schema(schema_path)
    durations = [r.exec_duration_ms for r in ingest_trace(renamed, schema)]
    assert sum(micros(d) is None for d in durations) > len(durations) // 10

    out = tmp_path / "out"
    platforms = ("aws_lambda", "gcp_cloudrun_functions")
    assert cli.main(["analyze", "--trace", str(renamed), "--schema", str(schema_path),
                     "--platforms", ",".join(platforms), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    n = ledger["n_records"]
    assert report["n_records"] == n
    assert report["ingest"] == {"rows_read": n, "malformed_skipped": 0, "zero_cpu_filtered": 0}
    # The durations were read in seconds: the actual totals are the
    # canonical trace's.
    canonical = list(ingest_trace(source))
    for name, block in zip(platforms, report["inflation"]):
        want = inflation_analysis(canonical, resolve_platform(name))
        assert block["n"] == n
        assert block["actual_vcpu_s_total"] == pytest.approx(want.actual_vcpu_s_total, rel=1e-9)
        assert block["actual_gb_s_total"] == pytest.approx(want.actual_gb_s_total, rel=1e-9)
    assert report["correlation"]["pearson_r"] == pytest.approx(
        ledger["realized"]["utilization_corr"], abs=1e-6
    )
    assert report["cold_start"]["fraction_nonpositive"] == pytest.approx(
        ledger["realized"]["nonpositive_fraction"], abs=1e-12
    )


# ------------------------------------------ 10: live cgroup (gated)


@pytest.mark.skipif(
    sys.platform != "linux" or os.environ.get("FAASCOST_CGROUP_LIVE") != "1",
    reason="needs Linux with the current cgroup capped at 1.45 ms / 20 ms "
    "and FAASCOST_CGROUP_LIVE=1",
)
def test_criterion_10_live_probe_interval_mode():
    """Under cpu.max '1450 20000' the throttle interval mode is 20 +- 1 ms."""
    result = probe(ProbeConfig(exec_duration_ms=2000))
    assert len(result.events) >= 20, "no throttling observed; check cpu.max"
    fp = analyze_events(result.events, result.total_runtime_ms)
    mode = fp.interval_mode_ms(bin_ms=1.0)
    assert mode == pytest.approx(20.0, abs=1.0)
    print(f"criterion 10: interval mode {mode} ms")
