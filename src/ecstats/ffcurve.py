"""Point counting and classification of short Weierstrass curves over F_p.

A residue pair (a, b) mod p defines y^2 = x^3 + a x + b.  Nonsingular pairs
are classified by the point count N = #E(F_p):

* ``ORDINARY``       N not congruent to 0 or 1 mod p (good ordinary, and p
  is not anomalous for the curve);
* ``ANOMALOUS``      N == 0 mod p;
* ``SUPERSINGULAR``  N == 1 mod p, i.e. the trace of Frobenius vanishes mod
  p, which for p >= 5 forces it to vanish exactly.

Counting is by character sums: N = p + 1 + sum_x chi(x^3 + a x + b) with chi
the quadratic character (chi(0) = 0).  One residue table per p, O(p) per
curve.  The exhaustive per-p census counts only the rows a = 0, 1 and g (a
non-residue) and reads every other row off them as a quadratic twist, so it
costs O(p^2) per prime: all primes up to 350 take well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import check_prime
from .errors import PrimeTooLargeError, SingularCurveError

MAX_FIELD_PRIME = 1 << 20
# class_code_table / point_count_table materialize p^2 entries
MAX_TABLE_PRIME = 1024


class PointClass(IntEnum):
    """The class of a residue pair; the values are the codes of class_code_table."""

    SINGULAR = 0
    ORDINARY = 1
    ANOMALOUS = 2
    SUPERSINGULAR = 3


@dataclass(frozen=True)
class ResidueClass:
    kind: PointClass
    point_count: int | None  # None exactly when the pair is singular


@dataclass(frozen=True)
class ClassCounts:
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
def chi_table(p: int) -> np.ndarray:
    """Quadratic character values chi(t) for t in [0, p), chi(0) = 0, as a
    read-only int8 array."""
    _check_field_prime(p, 3)
    chi = np.full(p, -1, dtype=np.int8)
    xs = np.arange(p // 2 + 1, dtype=np.int64)
    chi[xs * xs % p] = 1
    chi[0] = 0
    chi.setflags(write=False)
    return chi


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
    xs = np.arange(p, dtype=np.int64)
    return p + 1 + int(chi_table(p)[(xs * xs * xs + a % p * xs + b % p) % p].sum())


def classify_residue(p: int, a: int, b: int) -> ResidueClass:
    """Classify one residue pair by discriminant and point count mod p."""
    _check_field_prime(p, 3)
    if discriminant_mod(p, a, b) == 0:
        return ResidueClass(PointClass.SINGULAR, None)
    n = count_points(p, a, b)
    r = n % p
    if r == 0:
        return ResidueClass(PointClass.ANOMALOUS, n)
    if r == 1:
        return ResidueClass(PointClass.SUPERSINGULAR, n)
    return ResidueClass(PointClass.ORDINARY, n)


def _row_traces(p: int, chi, a: int):
    """Traces p + 1 - #E(F_p) of (a, b) for b = 0..p-1 (the character sum
    also for singular b), in blocks of about 2^22 character lookups."""
    xs = np.arange(p, dtype=np.int64)
    f = (xs * xs * xs + a * xs) % p
    chunk = max(1, (1 << 22) // p)
    return -np.concatenate([chi[(f + xs[lo: lo + chunk, None]) % p].sum(axis=1, dtype=np.int64)
                            for lo in range(0, p, chunk)])


@lru_cache(maxsize=32)
def _twist_rows(p: int):
    """(chi, rows, traces, singular): chi(x) for x in [0, p), the rows
    a in (0, 1, g) with g the least quadratic non-residue mod p, and per row
    the traces t(a, b) and the singular flags for b = 0..p-1.  O(p^2).

    (u^2 a0, u^3 b) is the quadratic twist of (a0, b) by u, with trace
    chi(u) t(a0, b) and the same discriminant up to u^6.  Every a != 0 is
    u^2 a0 for a0 in (1, g), so these three rows determine the census.  The
    arrays are read-only because the cache shares them.
    """
    chi = chi_table(p)
    rows = (0, 1, int(np.argmax(chi < 0)))
    bs = np.arange(p, dtype=np.int64)
    traces = np.array([_row_traces(p, chi, a) for a in rows])
    singular = np.array([(4 * a * a * a + 27 * bs * bs) % p == 0 for a in rows])
    for arr in (traces, singular):
        arr.setflags(write=False)
    return chi, rows, traces, singular


@lru_cache(maxsize=128)
def residue_class_counts(p: int) -> ClassCounts:
    """Classify all p^2 residue pairs mod p and return exact counts.

    The densities ordinary_density and anomalous_density are the exact
    rationals count / p^2.  Row a = 0 is counted directly.  Each of rows 1
    and g stands for (p-1)/2 rows whose traces are its own times chi(u);
    twisting keeps t = 0 and singularity, and as u runs over F_p^* half the
    rows see t == 1 and half see t == -1 mod p as anomalous.
    """
    _check_field_prime(p, 5)
    _, _, traces, singular = _twist_rows(p)
    residues = [t[~sing] % p for t, sing in zip(traces, singular)]
    n_sing = int(singular[0].sum()) + (p - 1) // 2 * int(singular[1:].sum())
    n_ss = int((residues[0] == 0).sum()) + (p - 1) // 2 * sum(
        int((r == 0).sum()) for r in residues[1:])
    n_anom = int((residues[0] == 1).sum()) + (p - 1) * sum(
        int((r == 1).sum()) + int((r == p - 1).sum()) for r in residues[1:]) // 4
    return ClassCounts(p, p * p - n_anom - n_ss - n_sing, n_anom, n_ss, n_sing)


@lru_cache(maxsize=32)
def point_count_table(p: int) -> np.ndarray:
    """#E(F_p) for all p^2 residue pairs as a read-only p x p array indexed
    [a, b], -1 for singular pairs, filled from the three rows of _twist_rows.

    As u runs over 1..(p-1)/2, u^2 a0 runs once over the a != 0 in the
    square class of a0, and b -> u^3 b permutes the columns.
    """
    _check_field_prime(p, 5)
    if p > MAX_TABLE_PRIME:
        raise PrimeTooLargeError(f"p = {p} exceeds {MAX_TABLE_PRIME}, the cap on per-p tables")
    chi, rows, traces, singular = _twist_rows(p)
    us = np.arange(1, (p + 1) // 2, dtype=np.int64)
    a = np.array(rows[1:])[:, None, None] * (us * us)[:, None] % p  # rows 1 and g, twisted by u
    cols = np.arange(p, dtype=np.int64) * (us * us * us % p)[:, None] % p
    table = np.empty((p, p), dtype=np.int64)
    table[0] = np.where(singular[0], -1, p + 1 - traces[0])
    table[a, cols] = np.where(singular[1:, None], -1, p + 1 - chi[us][:, None] * traces[1:, None])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def class_code_table(p: int) -> np.ndarray:
    """The PointClass code of every residue pair as a read-only p x p uint8
    array indexed [a, b], read off point_count_table(p)."""
    counts = point_count_table(p)
    r = counts % p
    codes = np.select([counts < 0, r == 0, r == 1],
                      [PointClass.SINGULAR, PointClass.ANOMALOUS, PointClass.SUPERSINGULAR],
                      PointClass.ORDINARY).astype(np.uint8)
    codes.setflags(write=False)
    return codes
