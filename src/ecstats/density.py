"""Exact local densities of Weierstrass pairs and their global products.

Local densities (with respect to the Haar measure on Z_ell x Z_ell) of the
basic congruence-defined sets:

* minimal pairs:                    1 - ell^-10
* good reduction (ell >= 5):        1 - 1/ell
* Kodaira type I_n (ell >= 5):      (ell-1)^2 / ell^(n+2)
* Kodaira type I_m, m >= n:         (ell-1)   / ell^(n+1)
* v(a) >= v1 and v(b) >= v2:        ell^-(v1+v2)

Global densities of congruence-defined families are products of local
measures over the primes carrying a condition: the exact factors at a
finite set of primes times congruence_density, the cofinite "minimal
everywhere else" product.  Its enclosure sweeps the factors up to a
truncation point L, rounded outward, and encloses the rest with
prod_{ell > L} (1 - eps_ell) >= 1 - sum_{n > L} n^-10 >= 1 - 1/(9 L^9), by
comparison with the integral of t^-10.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import check_prime, sieve_primes
from .errors import DomainError
from .intervals import WORKING_BITS, QInterval, outward

DEFAULT_TRUNCATION = 1000


def minimal_density(ell: int) -> Fraction:
    """Local density of minimal pairs at any prime ell: 1 - ell^-10."""
    check_prime(ell)
    return Fraction(*_minimal_ratio(ell))


def _minimal_ratio(ell: int) -> tuple[int, int]:
    """1 - ell^-10 as (numerator, denominator), for a checked prime."""
    return ell**10 - 1, ell**10


def density_good(ell: int) -> Fraction:
    """Local density of minimal pairs with good reduction, ell >= 5."""
    check_prime(ell, minimum=5)
    return Fraction(ell - 1, ell)


def density_In(ell: int, n: int) -> Fraction:
    """Local density of minimal pairs of Kodaira type I_n, n >= 1, ell >= 5."""
    check_prime(ell, minimum=5)
    if n < 1:
        raise DomainError("density_In requires n >= 1")
    return Fraction((ell - 1) ** 2, ell ** (n + 2))


def density_In_at_least(ell: int, n: int) -> Fraction:
    """Local density of minimal pairs of type I_m for some m >= n >= 1."""
    check_prime(ell, minimum=5)
    if n < 1:
        raise DomainError("density_In_at_least requires n >= 1")
    return Fraction(*_In_at_least_ratio(ell, n))


def _In_at_least_ratio(ell: int, n: int) -> tuple[int, int]:
    """(ell - 1) / ell^(n+1) as (numerator, denominator), for checked arguments."""
    return ell - 1, ell ** (n + 1)


def valuation_box_measure(ell: int, v1: int, v2: int) -> Fraction:
    """Measure of {v(a) >= v1, v(b) >= v2}: ell^-(v1+v2)."""
    check_prime(ell)
    if v1 < 0 or v2 < 0:
        raise DomainError("valuations must be nonnegative")
    return Fraction(1, ell ** (v1 + v2))


def minimal_tail(truncation: int, p: int | None = None) -> QInterval:
    """Enclosure of prod_{ell > truncation} (1 - eps_ell) over primes, where
    eps_ell = ell^-10, plus density_In_at_least(ell, p) < ell^-p if p is given."""
    if truncation < 1:
        raise DomainError("truncation must be >= 1")
    lo = 1 - Fraction(1, 9 * truncation**9)
    if p is not None:
        lo -= Fraction(1, (p - 1) * truncation ** (p - 1))
    if lo <= 0:
        raise DomainError(f"tail bound vacuous at truncation {truncation}")
    return QInterval(lo, Fraction(1))


def congruence_density(excluded=(), truncation: int = DEFAULT_TRUNCATION,
                       p: int | None = None) -> QInterval:
    """Enclosure of the product over the primes ell outside `excluded` of
    minimal_density(ell), less density_In_at_least(ell, p) if p is given (then
    `excluded` must hold 2 and 3): the factors up to the truncation, from
    the closed forms of the sieved primes, swept on integers over
    2^WORKING_BITS, times minimal_tail(truncation, p)."""
    tail, lo, hi = minimal_tail(truncation, p), 1 << WORKING_BITS, 1 << WORKING_BITS
    for ell in sieve_primes(truncation):
        if ell not in excluded:
            num, den = _minimal_ratio(ell)
            if p is not None:
                less, per = _In_at_least_ratio(ell, p)
                num, den = num * per - less * den, den * per
            lo, hi = outward(num, den, lo, hi)
    return tail * QInterval(Fraction(lo, 1 << WORKING_BITS), Fraction(hi, 1 << WORKING_BITS))
