"""The reference job: a fixed pass that uses the host the way the CLI does.

    python3 perfbench/refjob.py

It starts a fresh interpreter, imports NumPy, writes a seeded 20,000-row
CSV to the current directory, reads it back into records with the ``csv``
module, groups and sums them in Python, sorts columns with NumPy and writes
a JSON summary. It uses nothing from ``faascost``, so a change to the
program does not change its time; only the host's speed does. The
benchmark runs it once per round and reports the workload's time as a
multiple of this job's time in the same run.
"""

import csv
import json
import random

import numpy as np

ROWS = 20_000


def main() -> None:
    rng = random.Random(12345)
    with open("refjob.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["function_id", "duration_ms", "share", "memory_mb"])
        for i in range(ROWS):
            writer.writerow([f"f{i % 97}", f"{rng.random() * 100:.6f}",
                             f"{rng.random():.6f}", rng.randrange(128, 10240)])
    records = []
    with open("refjob.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            records.append((row["function_id"], float(row["duration_ms"]),
                            float(row["share"]), int(row["memory_mb"])))
    groups = {}
    for fid, ms, share, mb in records:
        groups.setdefault(fid, []).append(ms * share * mb / 1024.0)
    durations = np.sort(np.array([r[1] for r in records]))
    shares = np.array([r[2] for r in records])
    summary = {
        "p90_ms": float(durations[int(0.9 * len(durations))]),
        "mean_share": float(shares.mean()),
        "gb_ms": {fid: sum(v) for fid, v in sorted(groups.items())},
    }
    with open("refjob.json", "w") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main()
