"""Exact rational plumbing: conversions, parsing, and decimal formatting."""
from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import InputError

Number = Union[int, float, str, Fraction]


def to_fraction(x: Number) -> Fraction:
    """Exact rational view of a number.

    Floats go through their shortest repr, so a literal like 0.2 means
    exactly 1/5. Strings accept decimals ('0.25') and ratios ('1/4').
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError("booleans are not numbers here")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse number {x!r}") from exc
    raise InputError(f"cannot interpret {type(x).__name__} as a number")


def parse_ints(line: str, what: str, count: int | None = None) -> list[int]:
    """The whitespace-separated integers of one input line, exactly `count`
    of them when given; anything else raises InputError naming the line."""
    toks = line.split()
    if count is None or len(toks) == count:
        try:
            return [int(tok) for tok in toks]
        except ValueError:
            pass
    raise InputError(f"expected {what}, got {line!r}")


def fraction_to_decimal(x: Union[Fraction, float], places: int = 12) -> str:
    """Round-half-up decimal string with a fixed number of places."""
    f = x if isinstance(x, Fraction) else to_fraction(float(x))
    sign = "-" if f < 0 else ""
    f = abs(f)
    scaled = f.numerator * 10**places
    q, r = divmod(scaled, f.denominator)
    if 2 * r >= f.denominator:
        q += 1
    whole, frac = divmod(q, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def format_number(x: Fraction) -> str:
    """Shortest exact text for a rational: plain decimal when the
    denominator is 2^a 5^b, else 'p/q'. Parses back exactly."""
    den = x.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    places = max(twos, fives)
    if places == 0:
        return str(x.numerator)
    scaled = x.numerator * 10**places // x.denominator
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"
