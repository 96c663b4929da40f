"""Steadiness check: run every workload N times on N seeds and summarize.

    python3 perfbench/steady.py --runs 10 --out perfbench/work/set1.jsonl
    python3 perfbench/steady.py --summarize perfbench/work/set1.jsonl
    python3 perfbench/steady.py --summarize perfbench/work/set1.jsonl perfbench/work/set2.jsonl

For each workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json, plus the share of failed operations.
Given a second set, it also prints how far the second median moved from the
first, where a positive shift means worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(spec: dict, runs: int, first_seed: int, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        for workload in [w["name"] for w in spec["workloads"]]:
            for seed in range(first_seed, first_seed + runs):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}", file=sys.stderr)
                    continue
                result = json.loads(lines[-1])
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "result": result}) + "\n")
                fh.flush()
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                    file=sys.stderr)


def read_set(path: Path) -> Dict[str, List[dict]]:
    by_workload: Dict[str, List[dict]] = {}
    for line in path.read_text().splitlines():
        row = json.loads(line)
        by_workload.setdefault(row["workload"], []).append(row["result"])
    return by_workload


def summarize(spec: dict, sets: List[Path]) -> None:
    metrics = spec["end_to_end"]
    loaded = [read_set(p) for p in sets]
    print("workload       metric        n  median      q1          q3          "
          "spread  bound  ok   failed" + ("  shift" if len(sets) > 1 else ""))
    for workload in [w["name"] for w in spec["workloads"]]:
        results = loaded[0].get(workload, [])
        if not results:
            continue
        if len(results) < 2:
            print(f"{workload:<14} 1 run: quartiles need at least 2")
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares = {r["failed"] / r["attempted"] for r in results}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = "yes" if spread <= m["bound"] else "NO"
            line = (f"{workload:<14} {m['name']:<12} {len(values):>2}  {med:<10.4f}  "
                    f"{q1:<10.4f}  {q3:<10.4f}  {spread:6.3f}  {m['bound']:5.2f}  {ok:<3}  "
                    f"{failed}/{attempted}{'' if len(shares) == 1 else ' (share varies)'}")
            if len(sets) > 1:
                other = [r["metrics"][m["name"]]["value"]
                         for r in loaded[1].get(workload, [])]
                if other:
                    shift = statistics.median(other) / med - 1.0
                    if m["better"] == "higher":
                        shift = -shift
                    line += f"  {shift:+.3f}"
            print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=HERE / "work" / "steady.jsonl")
    parser.add_argument("--summarize", type=Path, nargs="+", default=None,
                        help="summarize saved sets instead of running")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2: quartiles need two values")
    spec = load_spec()
    if args.summarize:
        summarize(spec, args.summarize)
        return 0
    run_set(spec, args.runs, args.first_seed, args.out)
    summarize(spec, [args.out])
    return 0


if __name__ == "__main__":
    sys.exit(main())
