"""Engine vs independent rational-arithmetic oracle, decimal-string exact."""

import random
from fractions import Fraction

from faascost.billing.engine import compute_cost

from genpairs import invoice_view, random_pair
from oracle_invoice import reference_cost


def assert_pair_matches(record, config, alloc):
    got = compute_cost(record, config, alloc).as_dict()
    if not alloc.extras:
        # The record's own floats bill as the exact allocation they read as.
        assert compute_cost(record, config).as_dict() == got
    want = reference_cost(invoice_view(record, alloc), config)
    assert Fraction(got["billable_time_ms"]) == want["billable_time_ms"]
    assert got["total_usd"] == want["total_usd"]
    assert got["fee_usd"] == want["fee_usd"]
    for resource, term in got["alloc_terms"].items():
        assert term["usd"] == want["alloc_terms"][resource]
    for resource, term in got["usage_terms"].items():
        assert term["usd"] == want["usage_terms"][resource]


def test_engine_matches_oracle_on_random_pairs():
    rng = random.Random(20240514)
    for _ in range(500):
        assert_pair_matches(*random_pair(rng))


def test_engine_matches_oracle_on_cutoff_heavy_pairs():
    # Re-seed so the cutoff/turnaround branches get their own sweep.
    rng = random.Random(77)
    for _ in range(200):
        assert_pair_matches(*random_pair(rng))
