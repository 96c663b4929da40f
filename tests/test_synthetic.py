"""Synthetic trace generator: determinism, ledger accuracy, plant recovery."""

import gzip
import hashlib
import math

import pytest

from faascost.traces import (
    IngestStats,
    RoundingPolicy,
    cold_start_differential,
    generate_synthetic_trace,
    inflation_analysis,
    ingest_trace,
    rounding_up_stats,
    utilization_correlation,
)


def test_same_seed_same_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    la = generate_synthetic_trace(a, n_records=2000, seed=17)
    lb = generate_synthetic_trace(b, n_records=2000, seed=17)
    assert a.read_bytes() == b.read_bytes()
    assert la == lb
    c = tmp_path / "c.csv"
    lc = generate_synthetic_trace(c, n_records=2000, seed=18)
    assert a.read_bytes() != c.read_bytes()
    assert lc["exec_checksum_ms"] != la["exec_checksum_ms"]


def test_gzip_output_is_deterministic_and_equivalent(tmp_path):
    plain = tmp_path / "t.csv"
    packed = tmp_path / "t.csv.gz"
    packed2 = tmp_path / "u.csv.gz"
    generate_synthetic_trace(plain, n_records=500, seed=3)
    generate_synthetic_trace(packed, n_records=500, seed=3)
    generate_synthetic_trace(packed2, n_records=500, seed=3)
    assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
    assert packed.read_bytes() == packed2.read_bytes()


def test_ledger_counts_and_checksum_match_ingest(tmp_path):
    p = tmp_path / "t.csv"
    ledger = generate_synthetic_trace(p, n_records=4000, seed=5)
    stats = IngestStats()
    execs = []
    inits = []
    for r in ingest_trace(p, stats=stats):
        execs.append(r.exec_duration_ms)
        if r.is_cold_start:
            inits.append(r.init_duration_ms)
    assert stats.records_yielded == ledger["n_records"] == 4000
    assert stats.malformed_skipped == 0
    assert len(inits) == ledger["n_instances"]
    # checksums are over the serialized values, so equality is exact
    assert math.fsum(execs) == ledger["exec_checksum_ms"]
    assert math.fsum(inits) == ledger["init_checksum_ms"]


def test_planted_nonpositive_fraction_recovered_exactly(tmp_path):
    p = tmp_path / "t.csv"
    ledger = generate_synthetic_trace(
        p, n_records=4000, seed=11, nonpositive_fraction=0.42
    )
    assert ledger["realized"]["nonpositive_fraction"] == pytest.approx(
        ledger["planted"]["nonpositive_fraction"]
    )
    rep = cold_start_differential(ingest_trace(p))
    assert rep.n_cold_instances == ledger["n_instances"]
    assert rep.fraction_nonpositive == pytest.approx(
        ledger["realized"]["nonpositive_fraction"], abs=1e-15
    )
    assert abs(rep.fraction_nonpositive - 0.42) < 1e-3


def test_planted_correlation_recovered(tmp_path):
    p = tmp_path / "t.csv"
    ledger = generate_synthetic_trace(p, n_records=20_000, seed=1)
    res = utilization_correlation(ingest_trace(p))
    assert res.pearson_r == pytest.approx(
        ledger["realized"]["utilization_corr"], abs=1e-9
    )
    assert abs(res.pearson_r - 0.4) < 0.02


def test_roundup_means_match_ledger_and_theory(tmp_path):
    p = tmp_path / "t.csv"
    ledger = generate_synthetic_trace(p, n_records=20_000, seed=2)
    pols = [
        RoundingPolicy(name="g100", time_granularity_ms=100.0),
        RoundingPolicy(
            name="az",
            time_granularity_ms=100.0,
            mem_granularity_gb=0.125,
        ),
    ]
    s100, s_az = rounding_up_stats(ingest_trace(p), pols)
    realized = ledger["realized"]["time_roundup_ms"]["100.0"]
    assert s100.mean_time_roundup_ms == pytest.approx(realized, rel=1e-9)
    expected = ledger["planted"]["expected_time_roundup_ms"]["100.0"]
    assert expected == pytest.approx(49.5)
    assert abs(s100.mean_time_roundup_ms - expected) / expected < 0.02
    mem_realized = ledger["realized"]["mem_roundup_gb_s"]["0.125"]
    assert s_az.mean_mem_roundup_gb_s == pytest.approx(mem_realized, rel=1e-9)


def test_trailing_partial_instance(tmp_path):
    p = tmp_path / "t.csv"
    ledger = generate_synthetic_trace(p, n_records=10, seed=0, requests_per_instance=4)
    assert ledger["n_instances"] == 3
    rows = list(ingest_trace(p))
    assert len(rows) == 10
    last_instance = [r for r in rows if r.instance_id == rows[-1].instance_id]
    assert len(last_instance) == 2


def test_argument_validation(tmp_path):
    p = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        generate_synthetic_trace(p, n_records=0)
    with pytest.raises(ValueError):
        generate_synthetic_trace(p, n_records=10, nonpositive_fraction=1.5)
    with pytest.raises(ValueError):
        generate_synthetic_trace(p, n_records=10, utilization_corr=1.0)


def _ledger(n_records, n_instances, n_functions, seed, rpi, exec_sum, init_sum,
            n_nonpos, corr, mean_exec, n_kept, time_roundup, mem_roundup):
    return {
        "n_records": n_records, "n_instances": n_instances,
        "n_functions": n_functions, "seed": seed, "requests_per_instance": rpi,
        "exec_checksum_ms": exec_sum, "init_checksum_ms": init_sum,
        "planted": {
            "utilization_corr": 0.4,
            "nonpositive_fraction": n_nonpos / n_instances,
            "n_nonpositive_instances": n_nonpos,
            "duration_distribution": "uniform(0, 100.0] ms",
            "roundup_min_exec_ms": 1.0,
            "expected_time_roundup_ms": {"100.0": 49.5},
        },
        "realized": {
            "utilization_corr": corr,
            "nonpositive_fraction": n_nonpos / n_instances,
            "mean_exec_ms": mean_exec,
            "n_roundup_records": n_kept,
            "time_roundup_ms": {"100.0": time_roundup},
            "mem_roundup_gb_s": {"0.125": mem_roundup},
        },
    }


# The plain bytes (sha256) and the ledger of four parameter sets, pinned so
# that a faster generator writes the same trace. The last instance of the
# 10-row, 4001-row and 5-row traces is partial; the 5-row trace's holds one
# row. Gzip output may change with the compression level, its content may not.
_GOLDEN = [
    (
        dict(n_records=2000, seed=17),
        "48da5f4462efed2fbd94b7bc3845400e7e62202dc697e49dbd6c1bbf9948cf67",
        _ledger(2000, 500, 50, 17, 4, 101107.256458, 111118.641078,
                210, 0.37781831611828814, 50.553628229000005, 1972,
                48.735932920385395, 0.003244377752759523),
    ),
    (
        dict(n_records=10, requests_per_instance=4),
        "b40ec095bd7e6c583df9c785f3356127a06b9d1052b7ab9f791ec2bcc6ef1885",
        _ledger(10, 3, 50, 0, 4, 449.489487, 404.14300099999997,
                1, 0.5963763330315482, 44.948948699999995, 10,
                55.051051300000005, 0.0037495256527762554),
    ),
    (
        dict(n_records=4001, seed=5, requests_per_instance=3, n_functions=7),
        "4e6df01581aa98f5c244f64e3bc407a7331037afa3886e0e6b0d22ce45e1bd67",
        _ledger(4001, 1334, 7, 5, 3, 202649.154318, 223672.248876,
                560, 0.3869621794741713, 50.64962617295676, 3957,
                48.79203535809957, 0.0032152880119965276),
    ),
    (
        dict(n_records=5, seed=2),
        "e032097542bf9d1109a1484b1f86dabb7f6b8995e8d7c8433009bcc02a09da31",
        _ledger(5, 2, 50, 2, 4, 293.365452, 171.550017,
                1, 0.5767077265429361, 58.6730904, 5,
                41.3269096, 0.0030308382853536024),
    ),
]


@pytest.mark.parametrize("params, sha256, ledger", _GOLDEN)
def test_golden_bytes_and_ledger(tmp_path, params, sha256, ledger):
    plain = tmp_path / "t.csv"
    assert generate_synthetic_trace(plain, **params) == ledger
    assert hashlib.sha256(plain.read_bytes()).hexdigest() == sha256
    packed = [tmp_path / "a.csv.gz", tmp_path / "b.csv.gz"]
    for path in packed:
        assert generate_synthetic_trace(path, **params) == ledger
        assert gzip.decompress(path.read_bytes()) == plain.read_bytes()
    assert packed[0].read_bytes() == packed[1].read_bytes()
