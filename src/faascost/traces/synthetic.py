"""Deterministic synthetic trace generator with a plant ledger.

Produces a canonical-schema CSV whose statistics are known by
construction, so analytics can be validated end to end: a chosen
utilization correlation, an exact fraction of cold-start instances whose
initialization exceeds their total execution time, and uniform execution
durations with a closed-form expected rounding residual.
"""

from __future__ import annotations

import gzip
import io
import math
from contextlib import ExitStack
from pathlib import Path
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

_HEADER = (
    "function_id,instance_id,arrival_ts_ms,exec_duration_ms,init_duration_ms,"
    "is_cold_start,alloc_vcpus,alloc_memory_mb,cpu_usage_avg_vcpus,mem_usage_mb"
)

_MEM_CHOICES_MB = (128.0, 256.0, 512.0, 1024.0, 2048.0)
_MB_PER_VCPU = 1769.0
# The roundup analysis's floor, restated so the ledger stays an independent
# reference for it.
_ROUNDUP_MIN_EXEC_MS = 1.0
_MEM_ROUNDUP_GRAN_GB = 0.125


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc * yc).sum() / math.sqrt((xc * xc).sum() * (yc * yc).sum()))


def generate_synthetic_trace(
    path: Union[str, Path],
    n_records: int = 100_000,
    seed: int = 0,
    *,
    requests_per_instance: int = 4,
    nonpositive_fraction: float = 0.42,
    utilization_corr: float = 0.4,
    n_functions: int = 50,
    duration_max_ms: float = 100.0,
) -> dict:
    """Write a synthetic trace CSV (gzip if the path ends in .gz) and
    return its ledger.

    Instances carry ``requests_per_instance`` requests each; the first is a
    cold start. Exactly ``round(nonpositive_fraction * n_instances)``
    instances get an init duration above their total execution time (drawn
    in [1.05, 2.5] of it), the rest land in [0.30, 0.95] of it, so the
    cold-start differential sign survives the 6-decimal serialization with
    a wide margin. Execution durations are uniform on (0, duration_max_ms].
    Utilization pairs are bivariate normal around 0.5 with the requested
    correlation, clipped to (0, 1).

    The ledger holds counts, checksums over the values as serialized (so
    ingestion can be compared bit for bit), planted parameters with their
    closed-form expectations, and sample-exact statistics recomputed from
    the serialized values in an independent direct pass.
    """
    if n_records <= 0:
        raise ValueError("n_records must be positive")
    if requests_per_instance <= 0:
        raise ValueError("requests_per_instance must be positive")
    if not 0.0 <= nonpositive_fraction <= 1.0:
        raise ValueError("nonpositive_fraction must be in [0, 1]")
    if not -1.0 < utilization_corr < 1.0:
        raise ValueError("utilization_corr must be in (-1, 1)")
    if duration_max_ms <= _ROUNDUP_MIN_EXEC_MS:
        raise ValueError("duration_max_ms must exceed the 1 ms roundup floor")

    # Imported here: the CLI loads this module but never generates a trace,
    # and importing NumPy costs about 0.17 s and 13 MB of start-up.
    import numpy as np

    rng = np.random.default_rng(seed)
    n_inst = (n_records + requests_per_instance - 1) // requests_per_instance

    # Per-record draws.
    durations = duration_max_ms - rng.random(n_records) * duration_max_ms
    z1 = rng.standard_normal(n_records)
    z2 = rng.standard_normal(n_records)
    rho = utilization_corr
    u_cpu = np.clip(0.5 + 0.12 * z1, 0.02, 0.98)
    u_mem = np.clip(
        0.5 + 0.12 * (rho * z1 + math.sqrt(1.0 - rho * rho) * z2), 0.02, 0.98
    )

    # Per-instance draws.
    mem_mb = rng.choice(np.array(_MEM_CHOICES_MB), size=n_inst)
    vcpus = mem_mb / _MB_PER_VCPU
    perm = rng.permutation(n_inst)
    n_nonpos = round(nonpositive_fraction * n_inst)
    nonpos = np.zeros(n_inst, dtype=bool)
    nonpos[perm[:n_nonpos]] = True
    init_mult = np.where(
        nonpos,
        rng.uniform(1.05, 2.5, size=n_inst),
        rng.uniform(0.30, 0.95, size=n_inst),
    )

    # Everything below recomputes statistics from the values exactly as
    # parsed back from their serialized form, because that is what any
    # consumer of the CSV will see.
    exec_parsed = np.empty(n_records)
    ucpu_parsed = np.empty(n_records)
    umem_parsed = np.empty(n_records)
    musage_parsed_gb = np.empty(n_records)
    init_parsed = np.empty(n_inst)
    inst_exec_sums = np.zeros(n_inst)

    path = Path(path)
    with ExitStack() as stack:
        sink = stack.enter_context(open(path, "wb"))
        if path.suffix == ".gz":
            # filename and mtime pinned so the bytes are a pure function
            # of the inputs
            raw = stack.enter_context(
                gzip.GzipFile(filename="", fileobj=sink, mode="wb", mtime=0)
            )
        else:
            raw = sink
        text = stack.enter_context(
            io.TextIOWrapper(raw, encoding="utf-8", newline="")
        )
        text.write(_HEADER + "\n")
        rec = 0
        for i in range(n_inst):
            k = min(requests_per_instance, n_records - rec)
            fid = f"f{i % n_functions:03d}"
            iid = f"i{i:07d}"
            v_s = f"{vcpus[i]:.6f}"
            m_s = f"{mem_mb[i]:.6f}"
            v_f = float(v_s)
            m_f = float(m_s)
            base_ts = i * 10_000.0

            # Serialize execs first: init is planted against the sum of
            # the parsed (post-rounding) durations, not the raw draws.
            d_strs = []
            inst_sum = 0.0
            for j in range(k):
                d_s = f"{durations[rec + j]:.6f}"
                d_strs.append(d_s)
                d_f = float(d_s)
                exec_parsed[rec + j] = d_f
                inst_sum += d_f
            inst_exec_sums[i] = inst_sum

            init_s = f"{inst_sum * init_mult[i]:.6f}"
            init_parsed[i] = float(init_s)

            for j in range(k):
                r = rec + j
                cpu_s = f"{u_cpu[r] * v_f:.6f}"
                mem_s = f"{u_mem[r] * m_f:.6f}"
                ucpu_parsed[r] = float(cpu_s) / v_f
                umem_parsed[r] = float(mem_s) / m_f
                musage_parsed_gb[r] = float(mem_s) / 1024.0
                cold = j == 0
                text.write(
                    f"{fid},{iid},{base_ts + j * 1000.0:.1f},{d_strs[j]},"
                    f"{init_s if cold else '0.000000'},"
                    f"{'true' if cold else 'false'},"
                    f"{v_s},{m_s},{cpu_s},{mem_s}\n"
                )
            rec += k

    realized_corr = _pearson(ucpu_parsed, umem_parsed)
    realized_nonpos = int(np.sum(init_parsed >= inst_exec_sums))

    # Rounding statistics use the same >= 1 ms execution floor as the
    # analytics, so the filtered uniform expectation applies:
    # E[G*ceil(d/G) - d | d in (m, G]] = G - (m + G) / 2.
    mask = exec_parsed >= _ROUNDUP_MIN_EXEC_MS
    n_kept = int(mask.sum())
    gran = duration_max_ms
    kept = exec_parsed[mask]
    roundup = np.ceil(kept / gran) * gran - kept
    mem_g = _MEM_ROUNDUP_GRAN_GB
    mem_kept = musage_parsed_gb[mask]
    mem_roundup = (np.ceil(mem_kept / mem_g) * mem_g - mem_kept) * (kept / 1000.0)

    return {
        "n_records": int(n_records),
        "n_instances": int(n_inst),
        "n_functions": int(n_functions),
        "seed": int(seed),
        "requests_per_instance": int(requests_per_instance),
        "exec_checksum_ms": float(math.fsum(exec_parsed)),
        "init_checksum_ms": float(math.fsum(init_parsed)),
        "planted": {
            "utilization_corr": float(rho),
            "nonpositive_fraction": n_nonpos / n_inst,
            "n_nonpositive_instances": int(n_nonpos),
            "duration_distribution": f"uniform(0, {duration_max_ms}] ms",
            "roundup_min_exec_ms": _ROUNDUP_MIN_EXEC_MS,
            "expected_time_roundup_ms": {
                str(gran): gran - (_ROUNDUP_MIN_EXEC_MS + gran) / 2.0,
            },
        },
        "realized": {
            "utilization_corr": realized_corr,
            "nonpositive_fraction": realized_nonpos / n_inst,
            "mean_exec_ms": float(exec_parsed.mean()),
            "n_roundup_records": n_kept,
            "time_roundup_ms": {
                str(gran): float(math.fsum(roundup) / n_kept) if n_kept else None,
            },
            "mem_roundup_gb_s": {
                str(mem_g): float(math.fsum(mem_roundup) / n_kept) if n_kept else None,
            },
        },
    }
