"""Rank-error guarantees for the streaming quantile sketch."""

import random

import pytest

from faascost.traces import QuantileSketch


def true_rank_error(sorted_data, estimate, q):
    # distance between the estimate's rank range and the target rank,
    # as a fraction of n
    n = len(sorted_data)
    target = max(1, int(q * n))
    import bisect

    lo = bisect.bisect_left(sorted_data, estimate) + 1
    hi = bisect.bisect_right(sorted_data, estimate)
    if lo <= target <= hi:
        return 0.0
    return min(abs(lo - target), abs(hi - target)) / n


QUANTILES = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


@pytest.mark.parametrize("dist", ["uniform", "lognormal", "clustered"])
def test_rank_error_within_one_percent(dist):
    rng = random.Random(1234)
    if dist == "uniform":
        data = [rng.uniform(0, 1000) for _ in range(50_000)]
    elif dist == "lognormal":
        data = [rng.lognormvariate(0, 2) for _ in range(50_000)]
    else:
        data = [float(rng.randrange(20)) for _ in range(50_000)]

    sk = QuantileSketch(eps=0.005)
    for v in data:
        sk.insert(v)
    data.sort()
    for q in QUANTILES:
        err = true_rank_error(data, sk.query(q), q)
        assert err <= 0.01, (dist, q, err)


def test_mean_min_max_exact():
    sk = QuantileSketch()
    vals = [3.0, 1.0, 4.0, 1.0, 5.0]
    for v in vals:
        sk.insert(v)
    assert sk.mean() == pytest.approx(sum(vals) / len(vals))
    assert len(sk) == 5


def test_memory_stays_bounded():
    sk = QuantileSketch(0.005)
    for i in range(200_000):
        sk.insert(float(i % 1000))
    # GK keeps O((1/eps) log(eps n)) entries; 1/0.005 = 200 per log level
    assert len(sk._values) < 6_000


def test_small_and_degenerate_inputs():
    sk = QuantileSketch()
    with pytest.raises(ValueError):
        sk.query(0.5)
    sk.insert(42.0)
    assert sk.query(0.0) == 42.0
    assert sk.query(1.0) == 42.0
    with pytest.raises(ValueError):
        sk.query(1.5)
    with pytest.raises(ValueError):
        QuantileSketch(eps=0.7)


def test_constant_stream():
    sk = QuantileSketch()
    for _ in range(10_000):
        sk.insert(7.5)
    for q in QUANTILES:
        assert sk.query(q) == 7.5
