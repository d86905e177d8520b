"""Exact rational plumbing: the input-file reader and line parser, conversions, kernel checks, decimals."""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import InputError

Number = Union[int, float, str, Fraction]
MEASURE_TOL = Fraction(1, 10**12)


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


def _normalized_measures(raw: Sequence[Number], what: str) -> tuple[Fraction, ...]:
    """Block measures or mixture weights, named `what` in errors: one or more, positive, summing to 1."""
    mu = tuple(to_fraction(x) for x in raw)
    if not mu or any(x <= 0 for x in mu):
        raise InputError(f"{what} must be one or more positive numbers")
    total = sum(mu)
    if abs(total - 1) > MEASURE_TOL:
        raise InputError(f"{what} sum to {float(total)}, not 1")
    # renormalise exactly so downstream laws sum to exactly 1
    return tuple(x / total for x in mu)


def _checked_matrix(raw: Sequence[Sequence[Number]], rows: int, cols: int, name: str,
                    low: int = 0) -> tuple[tuple[Fraction, ...], ...]:
    """A kernel's value matrix as exact rationals; a shape other than rows x
    cols, or an entry outside [low, 1], raises InputError naming the first
    bad entry."""
    mat = tuple(tuple(to_fraction(x) for x in row) for row in raw)
    if len(mat) != rows or any(len(row) != cols for row in mat):
        raise InputError(f"{name} must be a {rows}x{cols} matrix")
    for a, row in enumerate(mat):
        for b, x in enumerate(row):
            if not low <= x <= 1:
                raise InputError(f"{name}[{a}][{b}] = {x} outside [{low},1]")
    return mat


def exact_dtype(bound: int) -> str:
    """The numpy dtype in which integer sums that stay below `bound` in
    absolute value are exact: float64 below 2^53, which BLAS multiplies
    fastest, int64 below 2^63, else Python ints in object arrays."""
    return "float64" if bound < 2**53 else "int64" if bound < 2**63 else "object"


def read_text(path: str) -> str:
    """The whole of an input file, which must be ASCII; a missing,
    unreadable or non-ASCII file raises InputError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def content_lines(text: str) -> list[str]:
    """The non-blank lines of a text, split as str.splitlines splits them."""
    return [ln for ln in text.splitlines() if ln.strip()]


def parse_line(line: str, what: str, count: int, number: Callable[[str], Number]) -> list:
    """The `count` whitespace-separated numbers of one input line, each read
    by `number` (int, or Fraction for exact rationals); anything else raises
    InputError naming the line."""
    toks = line.split()
    if len(toks) == count:
        try:
            return [number(tok) for tok in toks]
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"expected {what}, got {line!r}")


def number_rows(lines: Sequence[str], widths: Sequence[int]) -> list[list[Fraction]]:
    """The rows of exact numbers of a kernel file, row i of widths[i]
    numbers; a line count other than len(widths) raises InputError, and so
    does a bad line, quoted by parse_line."""
    if len(lines) != len(widths):
        raise InputError(f"expected {len(widths)} rows of numbers, got {len(lines)}")
    return [parse_line(ln, f"{w} numbers", w, Fraction) for ln, w in zip(lines, widths)]


def rows_lines(rows: Iterable[Iterable[Union[int, Fraction]]]) -> list[str]:
    """A line of format_number texts per row of exact numbers, as number_rows reads them."""
    return [" ".join(map(format_number, row)) for row in rows]


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
