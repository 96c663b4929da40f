"""The benchmark's workloads: seeded inputs, CLI operations, output checks.

A workload is a list of operations. An operation is one ``faascost`` CLI
invocation together with the checks on what it wrote; its ``check`` returns
the list of problems found (empty when the output is correct). Expected
values come from the generator's ledger, from ``exact.py`` and from the
rational oracles kept under ``tests/``, never from the code under test.
"""

from __future__ import annotations

import csv
import gzip
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple

import numpy as np

import exact
from faascost.billing import resolve_platform
from faascost.traces import generate_synthetic_trace
from oracle_invoice import reference_cost
from oracle_sched import oracle_completion_ms

PLATFORMS = (
    "aws_lambda",
    "gcp_cloudrun_functions",
    "azure_functions_consumption",
    "cloudflare_workers",
    "ibm_code_engine",
)
ROUNDUP_MS = ("1", "100")
ROUNDUP_MEM_GB = "0.125"
# inflation_analysis's default sketch error; the CLI does not change it.
SKETCH_EPS = 0.005
# GCP's 1st-gen vCPU knob values, all on its 0.01 vCPU grid.
GCP_GRID_VCPUS = (0.07, 0.14, 0.28, 0.56, 0.5, 1.0)
GCP_GRID_SEED = 0
BILL_PLATFORMS = ("aws_lambda", "gcp_cloudrun_functions")
SWEEP_PERIODS = ("5", "10", "20", "40", "80")
PATHOLOGY = {"p": "20", "q": "1.45", "tick_hz": 250}


@dataclass
class Op:
    name: str
    argv: List[str]
    check: Callable[[int], List[str]]  # round number -> problems found
    # Prefix of the problems that a known fault in the program causes; the
    # operation then counts as failed without making the run incorrect.
    known_fault: str = ""


class Workload:
    """Inputs live under ``work``; ``setup`` may run several times."""

    name = ""
    # Per-layer metric prefixes of the layers this workload calls; a traced
    # run must measure every metric under them.
    layers: Tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path, quick: bool) -> None:
        self.seed = seed
        self.work = work
        self.quick = quick
        self.ops_dir = work / "ops"

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Work out the expected outputs once the inputs exist."""

    def operations(self) -> List[Op]:
        raise NotImplementedError

    def op(self, name: str, argv: List[str], check, known_fault: str = "") -> Op:
        return Op(name, [*argv, "--out-dir", str(self.ops_dir / name)], check,
                  known_fault)

    def clear_outputs(self) -> None:
        shutil.rmtree(self.ops_dir, ignore_errors=True)
        self.ops_dir.mkdir(parents=True)


# ------------------------------------------------------------ analyze_trace


def _check_inflation(block: dict, truth: exact.InflationTruth, n: int,
                     errors: List[str]) -> None:
    name = block["platform"]
    if block["n"] != n:
        errors.append(f"{name}: n {block['n']} != {n}")
    exact.check_close(f"{name} actual_vcpu_s_total", block["actual_vcpu_s_total"],
                      truth.actual_vcpu_s, 1e-9, errors)
    exact.check_close(f"{name} actual_gb_s_total", block["actual_gb_s_total"],
                      truth.actual_gb_s, 1e-9, errors)
    for res, total, values in (
        ("vcpu_s", truth.billable_vcpu_s, truth.vcpu_s_values),
        ("gb_s", truth.billable_gb_s, truth.gb_s_values),
    ):
        got = block[f"billable_{res}_total"]
        if total is None:
            if got is not None:
                errors.append(f"{name}: billable_{res}_total {got} for an unbilled resource")
            continue
        exact.check_close(f"{name} billable_{res}_total", got, total, 1e-9, errors)
        sketch = block[f"billable_{res}"]
        exact.check_close(f"{name} billable_{res} mean", sketch["mean"], total / n,
                          1e-9, errors)
        ordered = np.sort(values)
        for q, key in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            err = exact.rank_error(ordered, sketch[key], q)
            if err > SKETCH_EPS + 1.0 / n:
                errors.append(f"{name} billable_{res} {key}: rank error {err:.5f} > eps")
    for res in ("cpu", "mem"):
        infl = block[f"mean_inflation_{res}"]
        if infl is not None and infl < 1.0:
            errors.append(f"{name}: mean_inflation_{res} {infl} < 1")


def _write_gcp_grid_copy(path: Path, rows: int, scratch: Path) -> None:
    """A seed-0 trace whose vCPU column is moved onto GCP's 0.01 grid.

    Instance i gets ``GCP_GRID_VCPUS[i % 6]``; consumed vCPUs keep their
    utilization share of the new allocation, so usage stays within it.
    """
    generate_synthetic_trace(scratch, n_records=rows, seed=GCP_GRID_SEED)
    with open(scratch, newline="") as src, open(path, "w", newline="") as dst:
        reader = csv.reader(src)
        writer = csv.writer(dst, lineterminator="\n")
        header = next(reader)
        writer.writerow(header)
        iv = header.index("alloc_vcpus")
        ic = header.index("cpu_usage_avg_vcpus")
        ii = header.index("instance_id")
        for row in reader:
            vcpus = GCP_GRID_VCPUS[int(row[ii][1:]) % len(GCP_GRID_VCPUS)]
            share = float(row[ic]) / float(row[iv])
            row[iv] = f"{vcpus:.6f}"
            row[ic] = f"{share * vcpus:.6f}"
            writer.writerow(row)
    scratch.unlink()


class AnalyzeTrace(Workload):
    name = "analyze_trace"
    layers = ("ingest.", "analysis.", "sketch.", "synthetic.", "platforms.", "cli.",
              "trace.")

    def __init__(self, seed, work, quick):
        super().__init__(seed, work, quick)
        self.rows = 2_000 if quick else 20_000
        self.grid_rows = 2_000 if quick else 10_000
        self.trace = work / "trace.csv"
        self.grid_trace = work / "gcp_grid.csv"

    def setup(self) -> None:
        self.ledger = generate_synthetic_trace(self.trace, n_records=self.rows,
                                               seed=self.seed)
        _write_gcp_grid_copy(self.grid_trace, self.grid_rows,
                             self.work / "gcp_grid_src.csv")

    def prepare(self) -> None:
        cols = exact.read_columns(self.trace)
        self.truth = {p: exact.inflation_truth(cols, resolve_platform(p))
                      for p in PLATFORMS}
        self.roundup = {g: exact.roundup_truth(cols, g, ROUNDUP_MEM_GB)
                        for g in ROUNDUP_MS}
        grid_cols = exact.read_columns(self.grid_trace)
        self.grid_truth = exact.inflation_truth(
            grid_cols, resolve_platform("gcp_cloudrun_functions"))

    def operations(self) -> List[Op]:
        return [
            self.op("analyze", [
                "analyze", "--trace", str(self.trace),
                "--analyses", "inflation,correlation,cold-start,roundup",
                "--platforms", ",".join(PLATFORMS),
                "--roundup-ms", ",".join(ROUNDUP_MS),
                "--roundup-mem-gb", ROUNDUP_MEM_GB,
                "--seed", str(self.seed),
            ], self.check_analyze),
            # _ceil_to_f bills grid-aligned vCPUs one 0.01 step up, which
            # moves the billable vCPU-s total, mean and percentiles only.
            self.op("gcp_grid", [
                "analyze", "--trace", str(self.grid_trace),
                "--platforms", "gcp_cloudrun_functions", "--analyses", "inflation",
            ], self.check_grid, known_fault="gcp_cloudrun_functions billable_vcpu_s"),
        ]

    def check_analyze(self, round_no: int) -> List[str]:
        errors: List[str] = []
        report = json.loads((self.ops_dir / "analyze" / "report.json").read_text())
        realized = self.ledger["realized"]
        n = self.ledger["n_records"]
        if report["n_records"] != n:
            errors.append(f"n_records {report['n_records']} != {n}")
        r = report["correlation"]["pearson_r"]
        if abs(r - realized["utilization_corr"]) > 1e-6:
            errors.append(f"pearson_r {r} vs ledger {realized['utilization_corr']}")
        frac = report["cold_start"]["fraction_nonpositive"]
        if abs(frac - realized["nonpositive_fraction"]) > 1e-12:
            errors.append(f"nonpositive fraction {frac} vs {realized['nonpositive_fraction']}")
        for doc, gran in zip(report["rounding_up"], ROUNDUP_MS):
            want_t, want_m = self.roundup[gran]
            exact.check_close(f"roundup {gran} ms time", doc["mean_time_roundup_ms"],
                              want_t, 1e-9, errors)
            exact.check_close(f"roundup {gran} ms mem", doc["mean_mem_roundup_gb_s"],
                              want_m, 1e-9, errors)
        g100 = report["rounding_up"][ROUNDUP_MS.index("100")]
        exact.check_close("roundup 100 ms vs ledger", g100["mean_time_roundup_ms"],
                          Fraction(realized["time_roundup_ms"]["100.0"]), 1e-9, errors)
        exact.check_close("roundup mem vs ledger", g100["mean_mem_roundup_gb_s"],
                          Fraction(realized["mem_roundup_gb_s"][ROUNDUP_MEM_GB]), 1e-9,
                          errors)
        blocks = report["inflation"]
        if [b["platform"] for b in blocks] != list(PLATFORMS):
            errors.append(f"inflation platforms {[b['platform'] for b in blocks]}")
            return errors
        for block in blocks:
            _check_inflation(block, self.truth[block["platform"]], n, errors)
        for key in ("actual_vcpu_s_total", "actual_gb_s_total"):
            if len({b[key] for b in blocks}) != 1:
                errors.append(f"{key} differs across platforms")
        return errors

    def check_grid(self, round_no: int) -> List[str]:
        errors: List[str] = []
        report = json.loads((self.ops_dir / "gcp_grid" / "report.json").read_text())
        (block,) = report["inflation"]
        _check_inflation(block, self.grid_truth, self.grid_rows, errors)
        return errors


# --------------------------------------------------------------- bill_trace


class BillTrace(Workload):
    name = "bill_trace"
    layers = ("ingest.", "synthetic.", "platforms.", "engine.", "cli.", "trace.")

    def __init__(self, seed, work, quick):
        super().__init__(seed, work, quick)
        self.rows = 1_000 if quick else 10_000
        self.sample = 100 if quick else 400
        self.trace = work / "trace.csv.gz"

    def setup(self) -> None:
        generate_synthetic_trace(self.trace, n_records=self.rows, seed=self.seed)

    def prepare(self) -> None:
        with gzip.open(self.trace, "rt", newline="") as fh:
            self.records = list(csv.DictReader(fh))
        self.configs = {p: resolve_platform(p) for p in BILL_PLATFORMS}

    def operations(self) -> List[Op]:
        return [
            self.op(f"bill_{p}", ["bill", "--platform", p, "--records", str(self.trace)],
                    lambda round_no, p=p: self.check_bill(p, round_no))
            for p in BILL_PLATFORMS
        ]

    def _record(self, row: dict, vcpus: Fraction, mem_mb: Fraction):
        return SimpleNamespace(
            exec_duration_ms=row["exec_duration_ms"],
            init_duration_ms=row["init_duration_ms"],
            cpu_usage_avg_vcpus=row["cpu_usage_avg_vcpus"],
            mem_usage_mb=row["mem_usage_mb"],
            alloc=SimpleNamespace(vcpus=vcpus, memory_mb=mem_mb, extras={}),
        )

    def check_bill(self, platform: str, round_no: int) -> List[str]:
        errors: List[str] = []
        config = self.configs[platform]
        with open(self.ops_dir / f"bill_{platform}" / "bills.csv", newline="") as fh:
            bills = list(csv.DictReader(fh))
        if len(bills) != len(self.records):
            return [f"{platform}: {len(bills)} rows for {len(self.records)} records"]
        for i, (bill, rec) in enumerate(zip(bills, self.records)):
            if (bill["function_id"], bill["instance_id"]) != (rec["function_id"],
                                                              rec["instance_id"]):
                return [f"{platform}: row {i} is not record {i}"]
        rng = random.Random(f"{self.seed}:{platform}:{round_no}")
        for i in rng.sample(range(len(bills)), self.sample):
            row, bill = self.records[i], bills[i]
            asked = (Fraction(row["alloc_vcpus"]), Fraction(row["alloc_memory_mb"]))
            granted = exact.normalized(*asked, config.knob_coupling)
            want = reference_cost(self._record(row, *granted), config)
            if bill["total_usd"] != want["total_usd"]:
                errors.append(f"{platform} row {i}: total {bill['total_usd']} "
                              f"!= {want['total_usd']}")
            if Fraction(bill["billable_time_ms"]) != want["billable_time_ms"]:
                errors.append(f"{platform} row {i}: billable time {bill['billable_time_ms']}")
            # bills.csv has no allocation columns: the allocation billed is
            # checked through its cost, never below that of the request.
            floor = reference_cost(self._record(row, *asked), config)["alloc_terms"]
            # Each reference term is rounded to 1e-12 USD on its own.
            slack = Fraction(len(floor), 10**12)
            if Fraction(bill["alloc_usd"]) < sum(map(Fraction, floor.values())) - slack:
                errors.append(f"{platform} row {i}: alloc_usd {bill['alloc_usd']} "
                              f"below the requested allocation's cost")
        return errors


# ------------------------------------------------------------ sched_profile


def _read_csv(path: Path) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _slug(period: str) -> str:
    return period.replace(".", "_")


class SchedProfile(Workload):
    name = "sched_profile"
    layers = ("sched.", "profiler.", "cli.", "trace.")

    def __init__(self, seed, work, quick):
        super().__init__(seed, work, quick)
        self.grid = 20 if quick else 200
        self.periods = ("10", "20") if quick else SWEEP_PERIODS
        self.timeline_ms = "100" if quick else "500"
        self.oracle: Dict[tuple, Fraction] = {}

    def setup(self) -> None:
        # The seed picks the task lengths from narrow ranges, so every seed
        # asks for nearly the same amount of simulation.
        rng = random.Random(self.seed)
        self.sweep_ms = f"33.{rng.randrange(10)}"
        self.replay_ms = str((1_000 if self.quick else 10_000) + 50 * rng.randrange(5))

    def operations(self) -> List[Op]:
        ops = []
        for flavor in ("cfs", "eevdf"):
            for hz in (250, 1000):
                for exact_acc in (False, True):
                    name = f"sweep_{flavor}_{hz}{'_exact' if exact_acc else ''}"
                    argv = ["simulate", "--t", self.sweep_ms,
                            "--p", ",".join(self.periods), "--grid", str(self.grid),
                            "--tick-hz", str(hz), "--flavor", flavor, "--breakpoints"]
                    if exact_acc:
                        argv.append("--exact-accounting")
                    ops.append(self.op(name, argv, lambda r, name=name, e=exact_acc:
                                       self.check_sweep(name, e)))
        p, q, hz = PATHOLOGY["p"], PATHOLOGY["q"], str(PATHOLOGY["tick_hz"])
        ops.append(self.op("timeline", ["simulate", "--t", self.timeline_ms, "--p", p,
                                        "--q", q, "--tick-hz", hz], self.check_timeline))
        ops.append(self.op("replay", ["profile", "replay", "--t", self.replay_ms,
                                      "--p", p, "--q", q, "--tick-hz", hz],
                           self.check_replay))
        events = str(self.ops_dir / "replay" / "events.csv")
        ops.append(self.op("fingerprint", ["profile", "analyze", "--in", events],
                           self.check_fingerprint))
        ops.append(self.op("report", ["profile", "report", "--in", events],
                           self.check_report))
        return ops

    def _completion(self, period: str, quota: str) -> Fraction:
        key = (period, quota)
        if key not in self.oracle:
            self.oracle[key] = oracle_completion_ms(self.sweep_ms, period, quota)
        return self.oracle[key]

    def check_sweep(self, name: str, exact_acc: bool) -> List[str]:
        errors: List[str] = []
        out = self.ops_dir / name
        cpu_ms = Fraction(self.sweep_ms)
        for period in self.periods:
            rows = _read_csv(out / f"duration_curve_p{_slug(period)}.csv")
            if len(rows) != self.grid:
                errors.append(f"{name} P={period}: {len(rows)} points")
            period_us = int(period) * 1000
            for row in rows:
                quota = Fraction(row["quota_ms"])
                want_q = Fraction(min(max(round(float(row["f"]) * period_us), 1),
                                      period_us), 1000)
                if quota != want_q:
                    errors.append(f"{name} P={period}: quota {row['quota_ms']} for f={row['f']}")
                done = Fraction(row["completion_ms"])
                if exact_acc:
                    want = self._completion(period, row["quota_ms"])
                    if done != want:
                        errors.append(f"{name} P={period} Q={row['quota_ms']}: "
                                      f"completion {row['completion_ms']} != {float(want)}")
                elif done < cpu_ms:
                    errors.append(f"{name} P={period}: finished before its CPU time")
            if not (out / f"breakpoints_p{_slug(period)}.csv").is_file():
                errors.append(f"{name} P={period}: no breakpoints file")
        return errors[:10]

    def check_timeline(self, round_no: int) -> List[str]:
        errors: List[str] = []
        doc = json.loads((self.ops_dir / "timeline" / "timeline.json").read_text())
        segs = [(round(s["start_ms"] * 1000), round(s["end_ms"] * 1000), s["state"])
                for s in doc["segments"]]
        if segs[:4] != [(0, 4_000, "running"), (4_000, 40_000, "throttled"),
                        (40_000, 44_000, "running"), (44_000, 100_000, "throttled")]:
            errors.append(f"opening segments {segs[:4]}")
        ran = sum(end - start for start, end, state in segs if state == "running")
        if ran != int(Fraction(self.timeline_ms) * 1000):
            errors.append(f"running time {ran} us != task {self.timeline_ms} ms")
        if any(a[1] != b[0] for a, b in zip(segs, segs[1:])) or segs[0][0] != 0:
            errors.append("segments are not contiguous from 0")
        if segs[-1][1] != round(doc["completion_ms"] * 1000):
            errors.append("last segment does not end at completion")
        return errors

    def check_replay(self, round_no: int) -> List[str]:
        out = self.ops_dir / "replay"
        summary = json.loads((out / "probe_summary.json").read_text())
        n = len(_read_csv(out / "events.csv"))
        errors = []
        if summary["n_events"] != n or n == 0:
            errors.append(f"{n} events written, summary says {summary['n_events']}")
        if summary["truncated"]:
            errors.append("probe truncated")
        return errors

    def _fingerprint_errors(self, fp: dict) -> List[str]:
        tick_ms = 1000.0 / PATHOLOGY["tick_hz"]
        errors = []
        if fp["period_ms_estimate"] != float(PATHOLOGY["p"]):
            errors.append(f"period {fp['period_ms_estimate']} != {PATHOLOGY['p']}")
        if fp["tick_hz_estimate"] != PATHOLOGY["tick_hz"]:
            errors.append(f"tick {fp['tick_hz_estimate']} Hz")
        quota = fp["quota_ms_estimate"]
        if quota is None or abs(quota - float(PATHOLOGY["q"])) > tick_ms:
            errors.append(f"quota {quota} not within one tick of {PATHOLOGY['q']}")
        return errors

    def check_fingerprint(self, round_no: int) -> List[str]:
        path = self.ops_dir / "fingerprint" / "fingerprint.json"
        return self._fingerprint_errors(json.loads(path.read_text()))

    def check_report(self, round_no: int) -> List[str]:
        doc = json.loads((self.ops_dir / "report" / "report.json").read_text())
        errors = self._fingerprint_errors(doc["fingerprint"])
        for row in doc["rows"]:
            want = (row["reference_period_ms"] == float(PATHOLOGY["p"])
                    and row["reference_tick_hz"] == PATHOLOGY["tick_hz"])
            if row["matches"] != want:
                errors.append(f"report row {row['platform']}: matches={row['matches']}")
        if doc["matched_platforms"] != [r["platform"] for r in doc["rows"] if r["matches"]]:
            errors.append("matched_platforms disagrees with the rows")
        return errors


WORKLOADS = {w.name: w for w in (AnalyzeTrace, BillTrace, SchedProfile)}
