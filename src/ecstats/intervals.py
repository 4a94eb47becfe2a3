"""Exact rational enclosures of nonnegative reals.

Every quantity the bounds enclose (local densities, sums of the positive
weights f(ell), zeta values, class weights) is a nonnegative real, so a
QInterval holds 0 <= lo <= hi, and its product and reciprocal need no sign
cases: [a, b] * [c, d] = [ac, bd] and 1/[a, b] = [1/b, 1/a] for a > 0
(Moore, Kearfott & Cloud, *Introduction to Interval Analysis*, 2009).
Endpoints are Fractions and the arithmetic on them is exact.  A long sum or
product of nonnegative terms is swept on integers over 2^WORKING_BITS by
`outward`, which rounds lo down and hi up; an infinite one becomes a finite
part plus an exact one-sided tail bound.  An interval certifies: the target
real number lies in [lo, hi].
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import DomainError

Rat = Union[Fraction, int]
WORKING_BITS = 256  # a sweep's unit is about 2^-256 of the value it encloses, or finer


def outward(num: int, den: int, lo: int, hi: int) -> tuple[int, int]:
    """num/den times [lo, hi] on an integer scale, lo rounded down and hi up."""
    return num * lo // den, -(-num * hi // den)


class QInterval(NamedTuple("QInterval", [("lo", Fraction), ("hi", Fraction)])):
    """The closed interval [lo, hi] of nonnegative reals.  Construction, and
    _replace, coerce both endpoints to Fractions and enforce 0 <= lo <= hi,
    raising ValueError otherwise."""

    __slots__ = ()

    def __new__(cls, lo: Rat, hi: Rat) -> "QInterval":
        lo, hi = Fraction(lo), Fraction(hi)
        if not 0 <= lo <= hi:
            raise ValueError(f"not an interval of nonnegative reals: [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def _make(cls, iterable) -> "QInterval":  # _replace builds through here
        return cls(*iterable)

    @classmethod
    def point(cls, value: Rat) -> "QInterval":
        return cls(value, value)

    def __add__(self, other: "QInterval | Rat") -> "QInterval":
        if not isinstance(other, QInterval):
            other = QInterval.point(other)
        return QInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __mul__(self, other: "QInterval | Rat") -> "QInterval":
        if not isinstance(other, QInterval):
            other = QInterval.point(other)
        return QInterval(self.lo * other.lo, self.hi * other.hi)

    __rmul__ = __mul__

    def reciprocal(self) -> "QInterval":
        if self.lo == 0:
            raise ZeroDivisionError("interval contains 0")
        return QInterval(1 / self.hi, 1 / self.lo)

    def contains(self, value: Rat) -> bool:
        return self.lo <= value <= self.hi

    def encloses(self, other: "QInterval") -> bool:
        """True when `other` is nested inside self."""
        return self.lo <= other.lo and other.hi <= self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def outward_rounded(self, significant: int = 40) -> "QInterval":
        """A slightly wider interval with short endpoints: lo rounded down
        and hi rounded up to `significant` digits, so every certification
        the interval carries survives serialization."""
        return QInterval(round_fraction(self.lo, significant, up=False),
                         round_fraction(self.hi, significant, up=True))

    def to_json(self, significant: int = 40) -> dict:
        rounded = self.outward_rounded(significant)
        return {
            "lo": str(rounded.lo),
            "hi": str(rounded.hi),
            "lo_decimal": float(rounded.lo),
            "hi_decimal": float(rounded.hi),
        }

    def __repr__(self) -> str:
        return f"QInterval[{float(self.lo)!r}, {float(self.hi)!r}]"


def round_fraction(q: Fraction, significant: int, up: bool) -> Fraction:
    """q rounded to `significant` digits, toward +inf (up) or -inf (down)."""
    if significant < 1:
        raise ValueError("significant must be >= 1")
    if q == 0:
        return Fraction(0)
    a, den = abs(q.numerator), q.denominator
    # e = floor(log10(|q|)): estimated from bit lengths (str(int) is capped
    # at 4300 digits), then made exact by integer corrections
    e = math.floor((a.bit_length() - den.bit_length()) * math.log10(2))
    while 10**max(e, 0) * den > a * 10**max(-e, 0):
        e -= 1
    while 10 ** max(e + 1, 0) * den <= a * 10 ** max(-(e + 1), 0):
        e += 1
    shift = significant - 1 - e
    scaled = q * Fraction(10) ** shift
    units = math.ceil(scaled) if up else math.floor(scaled)
    return check_printable(Fraction(units) / Fraction(10) ** shift)


def check_printable(q: Fraction) -> Fraction:
    """q, or DomainError where str(q) would pass Python's int-to-str digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(abs(q.numerator), q.denominator) >= 10**limit:
        raise DomainError(f"an exact value cannot be printed: Exceeds the limit ({limit} digits) "
                          "for integer string conversion; PYTHONINTMAXSTRDIGITS raises it")
    return q


def fraction_to_decimal(q: Fraction, places: int = 15) -> str:
    """Decimal string of q rounded half-up to `places`, computed in integers."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = q * 10**places
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        units += 1
    digits = str(units).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"
