"""Exact decimal arithmetic helpers for money and billable quantities.

Unit prices sit around 1e-7 USD and get multiplied by quantities spanning
ten orders of magnitude, so everything here runs on :class:`decimal.Decimal`
with a wide context instead of binary floats.  Ceiling division takes the
integer quotient and remainder, which stay exact where the granularity does
not divide the amount in any finite number of decimal digits (e.g. 1.0 / 0.3).
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from typing import Optional, Union

#: Wide enough that products and sums of config-scale literals stay exact.
CONTEXT = decimal.Context(prec=200, rounding=decimal.ROUND_HALF_EVEN)

#: Every billed amount (a duration, a usage or an allocation) lies below
#: this bound, so quotients by a granularity stay well within :data:`CONTEXT`.
MAX_AMOUNT = 2.0**53

#: Fractional digits used when serializing USD amounts.
USD_PLACES = 12

_USD_QUANTUM = Decimal(1).scaleb(-USD_PLACES)
_ZERO = Decimal(0)
#: :func:`micros` reads values below this bound, where adjacent floats lie
#: less than 10^-6 apart.
MICROS_LIMIT = 2.0**33

Number = Union[Decimal, int, str, float]


def dec(value: Number) -> Decimal:
    """Convert ``value`` to a :class:`Decimal` without binary-float surprises.

    Floats are routed through ``repr`` so ``dec(0.1) == Decimal("0.1")``;
    ints, strings, and Decimals convert exactly.  A string that is not a
    finite number raises :class:`ValueError`.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite amount: {value!r}")
        return Decimal(repr(value))
    if isinstance(value, Decimal):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a numeric amount")
    if isinstance(value, str):
        try:
            result = Decimal(value)
        except decimal.InvalidOperation:
            raise ValueError(f"not a number: {value!r}") from None
        if not result.is_finite():
            raise ValueError(f"non-finite amount: {value!r}")
        return result
    if isinstance(value, int):
        return Decimal(value)
    raise TypeError(f"cannot convert {type(value).__name__} to Decimal")


def micros(value: float) -> Optional[int]:
    """``value`` as an exact whole count of millionths, or None.

    The count is returned only for ``0 <= value < 2**33`` and only when it
    divides by 10^6 back to ``value``.  Floats there lie less than 10^-6
    apart, so that multiple of 10^-6 is the one decimal of at most six
    fractional digits that reads back as ``value``: the number ``repr``
    prints and :func:`dec` converts.  More digits, a value out of range or
    not finite give None, and so may, rarely, a value above 2**32, where
    ``value * 1e6`` can round off the grid; the caller then reads ``value``
    with :func:`dec`.
    """
    if 0 <= value < MICROS_LIMIT:
        units = round(value * 1e6)
        if units / 1e6 == value:
            return units
    return None


def whole_units(amount: Decimal, scale: int) -> Optional[int]:
    """``amount * scale`` as an int when that is a whole number, else None.

    A product that :data:`CONTEXT` would round is not whole: it is None too.
    """
    with decimal.localcontext(CONTEXT) as ctx:
        ctx.traps[decimal.Inexact] = True
        try:
            units = amount * scale
        except decimal.Inexact:
            return None
    if units != units.to_integral_value():
        return None
    return int(units)


def ceil_to(amount: Decimal, granularity: Decimal) -> Decimal:
    """Round ``amount`` up to the next multiple of ``granularity``, exactly.

    The step count is the integer quotient, plus one when the remainder is
    nonzero, so the result is an exact integer multiple of ``granularity``
    for any positive decimal granularity.  It runs under :data:`CONTEXT`,
    entered here unless the current context is already as wide.
    """
    if granularity <= _ZERO:
        raise ValueError("granularity must be > 0")
    if amount < _ZERO:
        raise ValueError("amount must be >= 0")
    if not amount:
        return _ZERO
    if decimal.getcontext().prec < CONTEXT.prec:
        with decimal.localcontext(CONTEXT):
            return ceil_to(amount, granularity)
    steps, rest = divmod(amount, granularity)
    if rest:
        steps += 1
    return steps * granularity


def usd_string(amount: Decimal) -> str:
    """Serialize a USD amount as a fixed-point string with 12 fractional digits."""
    quantized = amount.quantize(_USD_QUANTUM, rounding=decimal.ROUND_HALF_EVEN, context=CONTEXT)
    return format(quantized, "f")
