"""Exactness properties of the decimal money helpers."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faascost.money import ceil_to, dec, micros, usd_string, whole_units

amounts = st.decimals(
    min_value=Decimal(0), max_value=Decimal(10**9), allow_nan=False, allow_infinity=False, places=6
)
grans = st.decimals(
    min_value=Decimal("0.000001"), max_value=Decimal(10**6), allow_nan=False, allow_infinity=False, places=6
)


def test_dec_float_uses_shortest_repr():
    assert dec(0.1) == Decimal("0.1")
    assert dec(1769) == Decimal(1769)
    assert dec("0.0000166667") == Decimal("0.0000166667")


def test_dec_rejects_non_numbers():
    with pytest.raises(TypeError):
        dec(True)
    with pytest.raises(ValueError):
        dec(float("nan"))
    for text in ("abc", "nan", "inf"):
        with pytest.raises(ValueError):
            dec(text)


@given(amounts, grans)
def test_ceil_to_is_next_multiple(amount, gran):
    result = ceil_to(amount, gran)
    assert result >= amount
    # Exact multiple of the granularity and within one granularity above.
    quotient = Fraction(result) / Fraction(gran)
    assert quotient.denominator == 1
    assert result - amount < gran or amount == 0


@given(amounts, grans)
def test_ceil_to_idempotent(amount, gran):
    once = ceil_to(amount, gran)
    assert ceil_to(once, gran) == once


def test_ceil_to_nonterminating_ratio():
    # 1.0 / 0.3 has no finite decimal expansion; the rational path stays exact.
    assert ceil_to(Decimal("1"), Decimal("0.3")) == Decimal("1.2")


def test_usd_string_fixed_point():
    assert usd_string(Decimal("2E-7")) == "0.000000200000"
    assert usd_string(Decimal(0)) == "0.000000000000"
    assert usd_string(Decimal("1")) == "1.000000000000"
    # Half-to-even at the 12th fractional digit.
    assert usd_string(Decimal("0.0000000000015")) == "0.000000000002"
    assert usd_string(Decimal("0.0000000000025")) == "0.000000000002"


def test_micros_exact_millionths_only():
    assert micros(0.1) == 100_000
    assert micros(0.0) == micros(-0.0) == 0
    assert micros(1769.000001) == 1_769_000_001
    # Below 2**33 the nearest multiple of 10^-6 is the float's repr.
    assert repr(2.0**33 - 2.0**-19) == "8589934591.999998"
    assert micros(2.0**33 - 2.0**-19) == 8_589_934_591_999_998
    for value in (0.1234567, 1e-7, 2.0**33, 1e12, -1.0, float("nan"), float("inf")):
        assert micros(value) is None


@given(st.floats(min_value=0.0, max_value=2.0**33, exclude_max=True))
def test_micros_agrees_with_dec(value):
    units = micros(value)
    if units is not None:
        assert dec(value) == Decimal(units).scaleb(-6)


@given(st.integers(min_value=0, max_value=2**32 * 10**6))
def test_micros_keys_every_grid_value_below_2_to_32(units):
    # Above 2**32 a float's product with 1e6 can round off the grid; micros
    # then gives None, which costs the Decimal path but never a digit.
    assert micros(units / 10**6) == units


def test_whole_units():
    assert whole_units(Decimal("0.125"), 10**6) == 125_000
    assert whole_units(Decimal("0.0000001"), 10**6) is None
    assert whole_units(Decimal(0), 10**12) == 0
