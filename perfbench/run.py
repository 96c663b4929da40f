"""Benchmark of the faascost CLI: one workload per run.

    python3 perfbench/run.py --workload analyze_trace --seed 1 --seconds 35 --trace 0

Run from the root of a faascost checkout; the program is imported from its
``src/`` directory. With ``--trace 0`` the run times whole rounds of the
workload's CLI invocations, each in a fresh process, together with the
reference job (``refjob.py``) run between them, and reports the end-to-end
metrics. With ``--trace 1`` it runs the same invocations in-process
through ``faascost.cli.main``, once untraced and once with spans around the
layer functions, and reports the per-layer metrics. ``--quick`` shrinks
every input so that all checks run in a few seconds. Every operation's
output is checked. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = HERE / "work"

# Set-up runs this many times in every run, once before the first round and
# then after each round; setup_s comes from their median. Spread over the
# run, the set-ups do not all fall into one burst of load on the host.
SETUP_REPEATS = 5
STARTUP_SAMPLES = 5
BYTES_PER_RECORD_ROWS = 20_000
REFERENCE_ARGV = [sys.executable, str(HERE / "refjob.py")]
# The reference job runs before an invocation once this much invocation time
# has passed since it last ran, so that it samples the host's speed
# throughout the run.
REFERENCE_EVERY_S = 1.0
# The reference job's time on the 2-vCPU host of the README's figures.
# wall_s and setup_s are given at that speed: a measured time times
# REFERENCE_S over the reference job's mean time in the same run.
REFERENCE_S = 0.35

@dataclass
class Invocation:
    start: float
    end: float
    rss_mb: float
    code: int
    stderr: str


def cli_argv(argv: List[str]) -> List[str]:
    return [sys.executable, "-m", "faascost.cli", *argv]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs child processes through ``launch.py``; peak RSS comes from each
    child's own rusage."""

    def __init__(self, env: Dict[str, str]) -> None:
        self._proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")],
                                      env=env, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def run(self, argv: List[str], cwd: Path) -> Invocation:
        err_path = cwd / "stderr.txt"
        request = {"argv": argv, "cwd": str(cwd), "stderr": str(err_path)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        return Invocation(reply["start"], reply["end"], reply["rss_kb"] / 1024.0,
                          reply["code"], err_path.read_text(errors="replace")[-2000:])

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


class Tally:
    """Attempted and failed operations, and whether every failure is known.

    A failure is known when every problem found starts with the operation's
    ``known_fault`` prefix; any other problem, a non-zero exit code included,
    makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported = set()

    def record(self, workload: str, op, code: int, stderr: str, round_no: int) -> None:
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()}"]
        else:
            try:
                problems = op.check(round_no)
            except Exception:  # a missing or malformed output fails the operation
                problems = ["check raised: " + traceback.format_exc(limit=2)]
        self.attempted += 1
        self.failed += bool(problems)
        known = code == 0 and bool(op.known_fault) and all(
            p.startswith(op.known_fault) for p in problems)
        if problems and not known:
            self.correct = False
        if problems and (op.name, known) not in self._reported:
            self._reported.add((op.name, known))
            print(f"{workload}/{op.name} failed{' (known fault)' if known else ''}: "
                  + "; ".join(problems[:3]), file=sys.stderr)


def timed_setup(wl, launcher: Launcher) -> float:
    """Generate the inputs, then start the CLI once so that byte-compiling
    the package is not charged to the first timed round."""
    start = perf_counter()
    wl.setup()
    launcher.run(cli_argv(["--version"]), wl.work)
    return perf_counter() - start


def untraced(wl, seconds: float, launcher: Launcher, tally: Tally,
             setups: List[float]) -> Dict[str, float]:
    """Whole rounds until the next round would take the time spent in
    rounds past ``seconds``; ``setups`` is topped up to SETUP_REPEATS.

    The reference job runs first and then before any invocation that
    follows REFERENCE_EVERY_S of invocations, so both sample the host
    through the whole run. ``wall_s`` is the mean round's invocation time
    and ``setup_s`` the median set-up, each scaled to the reference speed
    (see REFERENCE_S). Host load that slows the run slows the reference job
    in the same proportion and cancels out.
    """
    ops = wl.operations()
    times: List[List[float]] = [[] for _ in ops]
    ref_times: List[float] = []
    peak = 0.0
    spent = 0.0
    since_ref = REFERENCE_EVERY_S
    for round_no in itertools.count():
        round_start = perf_counter()
        wl.clear_outputs()
        results = []
        for op in ops:
            if since_ref >= REFERENCE_EVERY_S:
                ref = launcher.run(REFERENCE_ARGV, wl.work)
                if ref.code != 0:
                    raise RuntimeError(f"the reference job exited with {ref.code}: "
                                       f"{ref.stderr}")
                ref_times.append(ref.end - ref.start)
                since_ref = 0.0
            results.append(launcher.run(cli_argv(op.argv), wl.work))
            since_ref += results[-1].end - results[-1].start
        for t, r in zip(times, results):
            t.append(r.end - r.start)
        peak = max([peak] + [r.rss_mb for r in results])
        for op, res in zip(ops, results):
            tally.record(wl.name, op, res.code, res.stderr, round_no)
        print(f"round {round_no}: reference {ref_times[-1]:.3f} s  "
              + " ".join(f"{op.name}={r.end - r.start:.3f}" for op, r in zip(ops, results)),
              file=sys.stderr)
        round_s = perf_counter() - round_start
        spent += round_s
        if len(setups) < SETUP_REPEATS:
            setups.append(timed_setup(wl, launcher))
        if spent + round_s > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(wl, launcher))
    (wl.work / "times.json").write_text(json.dumps(
        {"reference": ref_times, "setup": setups,
         "invocations": {op.name: t for op, t in zip(ops, times)}}))
    scale = REFERENCE_S / statistics.mean(ref_times)
    return {"wall_s": scale * sum(map(sum, times)) / len(times[0]),
            "peak_rss_mb": peak, "setup_s": scale * statistics.median(setups)}


def in_process_round(wl, tally: Tally, round_no: int, tracer=None) -> float:
    from faascost import cli

    ops = wl.operations()
    wl.clear_outputs()
    codes = []
    start = perf_counter()
    for op in ops:
        sid = tracer.open("cli.main") if tracer else None
        try:
            codes.append(cli.main(op.argv))
        finally:
            if tracer:
                tracer.close(sid)
    wall = perf_counter() - start
    for op, code in zip(ops, codes):
        tally.record(wl.name, op, code, "", round_no)
    return wall


def bytes_per_record(trace: Path) -> float:
    from faascost.traces import ingest_trace

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = list(itertools.islice(ingest_trace(trace), BYTES_PER_RECORD_ROWS))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(records)


def startup(launcher: Launcher, cwd: Path) -> Dict[str, float]:
    runs = [launcher.run(cli_argv(["--version"]), cwd) for _ in range(STARTUP_SAMPLES)]
    return {"cli.startup_s": statistics.median(r.end - r.start for r in runs),
            "cli.startup_rss_mb": statistics.median(r.rss_mb for r in runs)}


def traced(wl, launcher: Launcher, tally: Tally) -> Dict[str, Optional[float]]:
    """Set up once and run one traced round in-process. An untraced round
    before and after it gives the tracing overhead; all three rounds count
    as attempted operations. A figure is None where the workload never
    called the layer."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.patch(workloads, "generate_synthetic_trace", tracer.span_fn(
        "synthetic.generate", lambda ledger, a, k: ledger["n_records"]))
    try:
        wl.setup()
    finally:
        tracer.restore()
    wl.prepare()
    # Untraced rounds on both sides of the traced one: the faster is the
    # baseline, so warm-up in the first round is not counted as overhead.
    base = in_process_round(wl, tally, 0)
    tracing.install(tracer)
    try:
        traced_wall = in_process_round(wl, tally, 1, tracer)
    finally:
        tracer.restore()
    base = min(base, in_process_round(wl, tally, 2))
    tracer.write(wl.work / "spans.jsonl")
    figures = tracer.metrics()
    gen = [s for s in tracer.spans if s["name"] == "synthetic.generate"]
    figures["synthetic.rows_per_s"] = (
        sum(s["units"] for s in gen) / sum(s["end"] - s["start"] for s in gen)
        if gen else None)
    trace = getattr(wl, "trace", None)
    figures["ingest.bytes_per_record"] = bytes_per_record(trace) if trace else None
    figures["trace.overhead_pct"] = 100.0 * (traced_wall - base) / base
    print(f"in-process round: {base:.3f} s untraced, {traced_wall:.3f} s traced",
          file=sys.stderr)
    figures.update(startup(launcher, wl.work))
    return figures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs: a fast self-check of every output check")
    args = parser.parse_args(argv)

    needed = [SRC / "faascost" / "cli.py", TESTS / "oracle_invoice.py",
              TESTS / "oracle_sched.py"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: {', '.join(absent)} not found; run from the root of a "
              "faascost checkout", file=sys.stderr)
        return 2
    # Start the launcher before this process imports NumPy and the program,
    # so that its small footprint is all the CLI processes inherit.
    launcher = Launcher(child_env())
    try:
        return measure(args, launcher)
    finally:
        launcher.close()


def measure(args: argparse.Namespace, launcher: Launcher) -> int:
    sys.path[1:1] = [str(SRC), str(TESTS)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, work, args.quick)
    tally = Tally()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        figures = traced(wl, launcher, tally)
        # A layer the workload never calls did no work in it: 0.
        unmeasured = sorted(k for k in units if figures.get(k) is None
                            and k.startswith(wl.layers))
        if unmeasured:
            print(f"error: {wl.name} calls these layers but no figure came of "
                  f"them: {unmeasured}", file=sys.stderr)
            return 1
        figures = {k: 0.0 if figures.get(k) is None else figures[k] for k in units}
    else:
        setups = [timed_setup(wl, launcher)]
        wl.prepare()
        figures = untraced(wl, args.seconds, launcher, tally, setups)
    absent = sorted(set(units) - set(figures))
    if absent:
        print(f"error: no measurement for {absent}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": figures[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
