"""Deterministic synthetic trace generator with a plant ledger.

Produces a canonical-schema CSV whose statistics are known by
construction, so analytics can be validated end to end: a chosen
utilization correlation, an exact fraction of cold-start instances whose
initialization exceeds their total execution time, and uniform execution
durations with a closed-form expected rounding residual.
"""

from __future__ import annotations

import gzip
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
# Execution durations are uniform on (0, _DURATION_MAX_MS].
_DURATION_MAX_MS = 100.0
_MEM_ROUNDUP_GRAN_GB = 0.125
# zlib's default level. GzipFile's default, 9, compresses the generated CSV
# about 4x slower for a file only 3.5% smaller.
_GZIP_LEVEL = 6
# Rows formatted and written at a time.
_BLOCK_ROWS = 1 << 14


def _per_row(values: list, rpi: int, n_rows: int) -> list:
    """Each instance's value once per row of that instance, for ``n_rows``
    rows of ``rpi`` rows per instance."""
    rows = [None] * n_rows
    for j in range(rpi):
        rows[j::rpi] = values[: len(range(j, n_rows, rpi))]
    return rows


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
) -> dict:
    """Write a synthetic trace CSV (gzip at level 6 if the path ends in
    .gz) and return its ledger.

    Instances carry ``requests_per_instance`` requests each; the first is a
    cold start. Exactly ``round(nonpositive_fraction * n_instances)``
    instances get an init duration above their total execution time (drawn
    in [1.05, 2.5] of it), the rest land in [0.30, 0.95] of it, so the
    cold-start differential sign survives the 6-decimal serialization with
    a wide margin. Execution durations are uniform on (0, 100] ms.
    Utilization pairs are bivariate normal around 0.5 with the requested
    correlation, clipped to (0, 1).

    The ledger holds counts, checksums over the values as serialized (so
    ingestion can be compared bit for bit), planted parameters with their
    closed-form expectations, and sample-exact statistics recomputed from
    the serialized values in an independent direct pass.

    The generator needs NumPy, which the package's ``test`` extra installs
    (``pip install -e ".[test]"``); no command of the CLI imports it.
    """
    if n_records <= 0:
        raise ValueError("n_records must be positive")
    if requests_per_instance <= 0:
        raise ValueError("requests_per_instance must be positive")
    if not 0.0 <= nonpositive_fraction <= 1.0:
        raise ValueError("nonpositive_fraction must be in [0, 1]")
    if not -1.0 < utilization_corr < 1.0:
        raise ValueError("utilization_corr must be in (-1, 1)")

    # Imported here: the CLI loads this module but never generates a trace,
    # and importing NumPy costs about 0.17 s and 13 MB of start-up.
    import numpy as np

    rng = np.random.default_rng(seed)
    n_inst = (n_records + requests_per_instance - 1) // requests_per_instance

    # Per-record draws.
    durations = _DURATION_MAX_MS - rng.random(n_records) * _DURATION_MAX_MS
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
    # consumer of the CSV will see. Each column is formatted once, from
    # Python floats, and parsed back once with float(); products and
    # quotients are the same IEEE operations in NumPy as in Python.
    exec_parsed = np.empty(n_records)
    ucpu_parsed = np.empty(n_records)
    umem_parsed = np.empty(n_records)
    musage_parsed_gb = np.empty(n_records)
    init_parsed = np.empty(n_inst)
    inst_exec_sums = np.empty(n_inst)
    rpi = requests_per_instance
    block_inst = max(1, _BLOCK_ROWS // rpi)

    path = Path(path)
    with ExitStack() as stack:
        out = stack.enter_context(open(path, "wb"))
        if path.suffix == ".gz":
            # filename and mtime pinned so the bytes are a pure function
            # of the inputs
            out = stack.enter_context(gzip.GzipFile(
                filename="", fileobj=out, mode="wb", compresslevel=_GZIP_LEVEL, mtime=0
            ))
        out.write(_HEADER.encode() + b"\n")
        for i0 in range(0, n_inst, block_inst):
            i1 = min(i0 + block_inst, n_inst)
            r0, r1 = i0 * rpi, min(i1 * rpi, n_records)
            n = r1 - r0

            # Serialize execs first: init is planted against the sum of
            # the parsed (post-rounding) durations, not the raw draws.
            d_strs = [f"{x:.6f}" for x in durations[r0:r1].tolist()]
            exec_parsed[r0:r1] = [float(x) for x in d_strs]
            d_f = exec_parsed[r0:r1]
            # Each instance's sum is added in row order from 0.0; the last
            # instance may be partial.
            sums = np.zeros(i1 - i0)
            for j in range(rpi):
                sums[: len(range(j, n, rpi))] += d_f[j::rpi]
            inst_exec_sums[i0:i1] = sums
            init_strs = [f"{x:.6f}" for x in (sums * init_mult[i0:i1]).tolist()]
            init_parsed[i0:i1] = [float(x) for x in init_strs]

            v_strs = [f"{x:.6f}" for x in vcpus[i0:i1].tolist()]
            m_strs = [f"{x:.6f}" for x in mem_mb[i0:i1].tolist()]
            v_f = np.repeat([float(x) for x in v_strs], rpi)[:n]
            m_f = np.repeat([float(x) for x in m_strs], rpi)[:n]
            cpu_strs = [f"{x:.6f}" for x in (u_cpu[r0:r1] * v_f).tolist()]
            mem_strs = [f"{x:.6f}" for x in (u_mem[r0:r1] * m_f).tolist()]
            cpu_f = np.array([float(x) for x in cpu_strs])
            mem_f = np.array([float(x) for x in mem_strs])
            ucpu_parsed[r0:r1] = cpu_f / v_f
            umem_parsed[r0:r1] = mem_f / m_f
            musage_parsed_gb[r0:r1] = mem_f / 1024.0

            # The per-instance fields are formatted once per instance. The
            # arrival i * 10000 + j * 1000 ms is a whole number, so its
            # "%.1f" form is the integer with ".0".
            ids = [f"f{i % n_functions:03d},i{i:07d}," for i in range(i0, i1)]
            warm = [f"0.000000,false,{v},{m}," for v, m in zip(v_strs, m_strs)]
            r = np.arange(r0, r1)
            arrivals = (r // rpi * 10_000 + r % rpi * 1_000).tolist()
            id_rows = _per_row(ids, rpi, n)
            mid_rows = _per_row(warm, rpi, n)
            mid_rows[::rpi] = [
                f"{init},true,{v},{m}," for init, v, m in zip(init_strs, v_strs, m_strs)
            ]
            out.write("".join([
                f"{head}{ts}.0,{d},{mid}{cpu},{mem}\n"
                for head, ts, d, mid, cpu, mem
                in zip(id_rows, arrivals, d_strs, mid_rows, cpu_strs, mem_strs)
            ]).encode())

    realized_corr = _pearson(ucpu_parsed, umem_parsed)
    realized_nonpos = int(np.sum(init_parsed >= inst_exec_sums))

    # Rounding statistics use the same >= 1 ms execution floor as the
    # analytics, so the filtered uniform expectation applies:
    # E[G*ceil(d/G) - d | d in (m, G]] = G - (m + G) / 2.
    mask = exec_parsed >= _ROUNDUP_MIN_EXEC_MS
    n_kept = int(mask.sum())
    gran = _DURATION_MAX_MS
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
            "duration_distribution": f"uniform(0, {_DURATION_MAX_MS}] ms",
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
