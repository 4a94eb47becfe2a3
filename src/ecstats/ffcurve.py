"""Point counting and classification of short Weierstrass curves over F_p.

A residue pair (a, b) mod p defines y^2 = x^3 + a x + b.  Nonsingular pairs
are classified by the point count N = #E(F_p):

* ``ORDINARY``       N not congruent to 0 or 1 mod p (good ordinary, and p
  is not anomalous for the curve);
* ``ANOMALOUS``      N == 0 mod p;
* ``SUPERSINGULAR``  N == 1 mod p, i.e. the trace of Frobenius vanishes mod
  p, which for p >= 5 forces it to vanish exactly.

Counting is by character sums: N = p + 1 + sum_x chi(x^3 + a x + b) with chi
the quadratic character (chi(0) = 0).  One cached byte table per p, O(p) per
curve in pure Python; chi_table is a numpy view of that table.  The census
of all p^2 pairs is Deuring's count: (p-1)/2 * H(4p - t^2) nonsingular pairs
have trace t, H the Hurwitz class number, so it reads two class numbers
(three at p = 5) in pure Python, O(p) at worst (Deuring 1941; Lenstra, Ann.
of Math. 126, 1987).  The per-pair tables count the rows a = 0, 1 and g (a
non-residue) and read every other row off them as a quadratic twist, O(p^2)
per prime; numpy is imported only by the functions that build tables.
"""

from __future__ import annotations

import math
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .arith import check_prime
from .errors import PrimeTooLargeError, SingularCurveError

if TYPE_CHECKING:
    import numpy as np

MAX_FIELD_PRIME = 1 << 20
# class_code_table / point_count_table materialize p^2 entries
MAX_TABLE_PRIME = 1024


class PointClass(IntEnum):
    """The class of a residue pair; the values are the codes of class_code_table."""

    SINGULAR = 0
    ORDINARY = 1
    ANOMALOUS = 2
    SUPERSINGULAR = 3


class ResidueClass(NamedTuple):
    kind: PointClass
    point_count: int | None  # None exactly when the pair is singular


class ClassCounts(NamedTuple):
    """Exhaustive census of the p^2 residue pairs mod p."""

    p: int
    ordinary: int
    anomalous: int
    supersingular: int
    singular: int

    @property
    def total(self) -> int:
        return self.ordinary + self.anomalous + self.supersingular + self.singular

    @property
    def ordinary_density(self) -> Fraction:
        return Fraction(self.ordinary, self.p * self.p)

    @property
    def anomalous_density(self) -> Fraction:
        return Fraction(self.anomalous, self.p * self.p)


def _check_field_prime(p: int, minimum: int) -> None:
    """check_prime(p, minimum), then the cap on p that every table here shares."""
    check_prime(p, minimum)
    if p >= MAX_FIELD_PRIME:
        raise PrimeTooLargeError(f"p = {p} exceeds the supported cap 2^20")


@lru_cache(maxsize=64)
def _chi(p: int) -> memoryview:
    """Quadratic character values chi(t) for t in [0, p), chi(0) = 0, one
    signed byte each: 64 cached tables below 2^20 hold at most 64 MB."""
    _check_field_prime(p, 3)
    chi = bytearray(b"\xff") * p
    chi[0] = 0
    for x in range(1, p // 2 + 1):
        chi[x * x % p] = 1
    return memoryview(bytes(chi)).cast("b")


def chi_table(p: int) -> np.ndarray:
    """chi(t) for t in [0, p) as a read-only int8 array: a view of _chi(p)."""
    import numpy as np
    return np.frombuffer(_chi(p), dtype=np.int8)


def discriminant_mod(p: int, a: int, b: int) -> int:
    """(4 a^3 + 27 b^2) mod p."""
    return (4 * a * a * a + 27 * b * b) % p


def count_points(p: int, a: int, b: int) -> int:
    """#E_(a,b)(F_p) for a nonsingular residue pair.

    Raises SingularCurveError when 4a^3 + 27b^2 == 0 mod p.  The result is
    always in the Hasse interval [p + 1 - 2 sqrt(p), p + 1 + 2 sqrt(p)].
    """
    _check_field_prime(p, 3)
    if discriminant_mod(p, a, b) == 0:
        raise SingularCurveError(f"discriminant vanishes mod {p} for ({a}, {b})")
    chi, a, b = _chi(p), a % p, b % p
    return p + 1 + sum([chi[((x * x + a) * x + b) % p] for x in range(p)])


def classify_residue(p: int, a: int, b: int) -> ResidueClass:
    """Classify one residue pair by discriminant and point count mod p."""
    _check_field_prime(p, 3)
    if discriminant_mod(p, a, b) == 0:
        return ResidueClass(PointClass.SINGULAR, None)
    n = count_points(p, a, b)
    kind = {0: PointClass.ANOMALOUS, 1: PointClass.SUPERSINGULAR}.get(n % p, PointClass.ORDINARY)
    return ResidueClass(kind, n)


def _hurwitz6(n: int) -> int:
    """6 H(n) for n > 0, n = 0 or 3 mod 4: the reduced forms (a, b, c) with
    b^2 - 4ac = -n, |b| <= a <= c and b >= 0 when |b| = a or a = c, each
    weighing 6, but 3 for a(x^2 + y^2) and 2 for a(x^2 + x y + y^2).  One
    divisor scan of (b^2 + n)/4 per b: O(n) at worst, about 20 ms near 2^22."""
    total = 0
    for b in range(n & 1, math.isqrt(n // 3) + 1, 2):
        m = (b * b + n) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a == 0:
                sides = (b == 0) + (a == b) + (a * a == m)  # each equality fixes the sign of b
                total += (12, 6, 3 if b == 0 else 2)[sides]
    return total


@lru_cache(maxsize=128)
def residue_class_counts(p: int) -> ClassCounts:
    """Exact counts of the p^2 residue pairs mod p in each class.

    The densities ordinary_density and anomalous_density are the exact
    rationals count / p^2.  (p-1)/2 * H(4p - t^2) nonsingular pairs have
    trace t; anomalous means t == 1 mod p (t = 1, and t = -4 at p = 5),
    supersingular means t = 0, the p pairs (-3s^2, 2s^3) are singular, and
    the ordinary pairs are the rest.
    """
    _check_field_prime(p, 5)
    anomalous = sum(_hurwitz6(4 * p - t * t) for t in (1, 1 - p) if t * t < 4 * p)
    n_anom, n_ss = ((p - 1) * h // 12 for h in (anomalous, _hurwitz6(4 * p)))
    return ClassCounts(p, p * p - p - n_anom - n_ss, n_anom, n_ss, p)


@lru_cache(maxsize=32)
def point_count_table(p: int) -> np.ndarray:
    """#E(F_p) for all p^2 residue pairs as a read-only p x p array indexed
    [a, b], -1 for singular pairs.  O(p^2): only the rows a in (0, 1, g) are
    counted, g the least quadratic non-residue mod p.

    (u^2 a0, u^3 b) is the quadratic twist of (a0, b) by u, with trace
    chi(u) t(a0, b) and the same discriminant up to u^6.  As u runs over
    1..(p-1)/2, u^2 a0 runs once over the a != 0 in the square class of a0,
    and b -> u^3 b permutes the columns.
    """
    import numpy as np
    _check_field_prime(p, 5)
    if p > MAX_TABLE_PRIME:
        raise PrimeTooLargeError(f"p = {p} exceeds {MAX_TABLE_PRIME}, the cap on per-p tables")
    chi = chi_table(p)
    rows = (0, 1, int(np.argmax(chi < 0)))
    bs = np.arange(p, dtype=np.int64)
    # trace p + 1 - #E(F_p) = -sum_x chi(x^3 + a x + b), also for singular b:
    # one gather of p^2 lookups per row, x along the columns and b down them
    traces = np.array([-chi[(bs * bs * bs + a * bs + bs[:, None]) % p].sum(axis=1, dtype=np.int64)
                       for a in rows])
    singular = discriminant_mod(p, np.array(rows)[:, None], bs) == 0
    us = np.arange(1, (p + 1) // 2, dtype=np.int64)
    a = np.array(rows[1:])[:, None, None] * (us * us)[:, None] % p  # rows 1 and g, twisted by u
    cols = bs * (us * us * us % p)[:, None] % p
    table = np.empty((p, p), dtype=np.int64)
    table[0] = np.where(singular[0], -1, p + 1 - traces[0])
    table[a, cols] = np.where(singular[1:, None], -1, p + 1 - chi[us][:, None] * traces[1:, None])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def class_code_table(p: int) -> np.ndarray:
    """The PointClass code of every residue pair as a read-only p x p uint8
    array indexed [a, b], read off point_count_table(p)."""
    import numpy as np
    counts = point_count_table(p)
    r = counts % p
    codes = np.select([counts < 0, r == 0, r == 1],
                      [PointClass.SINGULAR, PointClass.ANOMALOUS, PointClass.SUPERSINGULAR],
                      PointClass.ORDINARY).astype(np.uint8)
    codes.setflags(write=False)
    return codes
