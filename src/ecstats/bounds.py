"""Certified lower bounds for densities of curves with prescribed growth.

Every bound here has the shape

    (1/zeta(p)) * ( e_n * W + e_m * W' )

where W = p^8 * N_ord / (p^10 - 1) and W' = p^8 * N_anom / (p^10 - 1) are
exact weights built from the mod-p census, and e_j is the j-th elementary
symmetric function of the weights

    f(ell) = ell^8 (ell-1)^2 / ((ell^10 - 1)(ell^p - 1))

over all primes ell outside {2, 3, p}.  f(ell) is the relative density
(within minimal pairs at ell) of Kodaira types I_m with p | m, m >= 1.

All arithmetic is exact rational.  Infinite objects are enclosed one-sidedly
in the safe direction: 1/zeta(p) from below via a partial sum plus integral
tail for zeta(p), and e_j from below by truncating to primes <= L (every
omitted term is positive), so the reported .lo endpoints are true lower
bounds of the displayed expressions at any truncation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import density, ffcurve
from .arith import check_prime, is_prime, sieve_primes
from .errors import DomainError, ExcludedPrimeError, TruncationError
from .intervals import QInterval, round_fraction

DEFAULT_ZETA_TERMS = 200
MAX_TRUNCATION = 1 << 24  # the sums sieve every prime up to the truncation

KIND_SELMER_GROWTH = "selmer_growth"
KIND_EULER_DIVISIBILITY = "euler_divisibility"
KIND_MU_LAMBDA = "mu_lambda"


def default_truncation(p: int) -> int:
    return 10 * p + 100


def _check_index_prime(ell: int, p: int) -> None:
    """The symmetric sums and families run over the primes ell >= 5, ell != p."""
    if ell == p or ell < 5 or not is_prime(ell):
        raise ExcludedPrimeError(f"ell = {ell} is not a prime >= 5 other than p = {p}")


def kodaira_multiple_weight(ell: int, p: int) -> Fraction:
    """f(ell) = ell^8 (ell-1)^2 / ((ell^10 - 1)(ell^p - 1)), ell outside {2,3,p}."""
    check_prime(p, 5)
    _check_index_prime(ell, p)
    return Fraction(ell**8 * (ell - 1) ** 2, (ell**10 - 1) * (ell**p - 1))


def _sym_tail_majorant(p: int, truncation: int) -> Fraction:
    # f(ell) < ell^(1-p), so the omitted mass is below the integral of t^(1-p)
    return Fraction(1, (p - 2) * truncation ** (p - 2))


def _check_truncation(n: int, truncation: int) -> None:
    """The sums of orders 1..n run over the primes up to a truncation >= 11,
    and no truncation may pass MAX_TRUNCATION."""
    if n > 0 and truncation < 11:
        raise TruncationError("truncation must be >= 11")
    if truncation > MAX_TRUNCATION:
        raise TruncationError(f"truncation {truncation} exceeds the cap 2^24")


def prime_symmetric_sum(n: int, p: int, truncation: int) -> QInterval:
    """Enclosure of the n-th elementary symmetric function of {f(ell)}.

    The index set is all primes ell outside {2, 3, p}.  Conventions:
    e_0 = 1 and e_n = 0 for n < 0 (exact point intervals).  The lower
    endpoint is the symmetric function over primes <= truncation; the upper
    endpoint adds sum_{k=1..n} e_{n-k} * T^k / k! with T bounding the total
    weight of the omitted primes.
    """
    check_prime(p, 5)
    if n < 0:
        return QInterval.point(0)
    _check_truncation(n, truncation)
    return _symmetric_sums(n, p, truncation, (n,))[0]


def _symmetric_sums(n: int, p: int, truncation: int,
                    orders: Sequence[int] | None = None) -> list[QInterval]:
    """The enclosures of prime_symmetric_sum for each of `orders` (every
    order 0..n by default; none above n, and any below 0 gives 0), n >= 0,
    from one sweep over the primes <= truncation (checked by the caller).

    The sweep keeps integer numerators of e_0..e_n over one common
    denominator, num[0], so each order is reduced to lowest terms once.  The
    upper endpoint of order m sums m + 1 products, so only the orders read
    are closed.
    """
    orders = range(n + 1) if orders is None else orders
    if n == 0:
        return [QInterval.point(int(m == 0)) for m in orders]
    num = [1] + [0] * n
    for ell in sieve_primes(truncation):
        if ell < 5 or ell == p:
            continue
        f = kodaira_multiple_weight(ell, p)
        for j in range(n, 0, -1):
            num[j] = num[j] * f.denominator + f.numerator * num[j - 1]
        num[0] *= f.denominator
    e = [Fraction(v, num[0]) for v in num]
    tail = _sym_tail_majorant(p, truncation)
    tk = [tail**k / math.factorial(k) for k in range(max(orders, default=0) + 1)]  # T^k / k!
    return [QInterval(e[m], sum(e[m - k] * tk[k] for k in range(m + 1))) if m >= 0
            else QInterval.point(0) for m in orders]


def zeta_enclosure(s: int, terms: int) -> QInterval:
    """Exact-rational enclosure of zeta(s) for integer s >= 2.

    zeta(s) lies between the partial sum over m <= terms and that sum plus
    the integral tail terms^(1-s)/(s-1).
    """
    if s < 2:
        raise DomainError("zeta_enclosure requires s >= 2")
    if terms < 10:
        raise DomainError("terms must be >= 10")
    partial = sum(Fraction(1, m**s) for m in range(1, terms + 1))
    tail = Fraction(1, (s - 1) * terms ** (s - 1))
    return QInterval(partial, partial + tail)


def zeta_reciprocal(s: int, terms: int = DEFAULT_ZETA_TERMS) -> QInterval:
    """Enclosure of 1/zeta(s) with a certified lower endpoint."""
    return zeta_enclosure(s, terms).reciprocal()


def class_weights(p: int) -> tuple[Fraction, Fraction]:
    """(W, W') = p^8/(p^10 - 1) times the ordinary and anomalous counts."""
    counts = ffcurve.residue_class_counts(p)
    scale = Fraction(p**8, p**10 - 1)
    return scale * counts.ordinary, scale * counts.anomalous


@dataclass(frozen=True)
class BoundTerms:
    zeta_reciprocal: QInterval
    sym_main: QInterval
    sym_aux: QInterval
    ordinary_weight: Fraction
    anomalous_weight: Fraction


@dataclass(frozen=True)
class BoundReport:
    """An evaluated lower bound; the certified number is value.lo."""

    kind: str
    p: int
    n: int
    truncation: int
    zeta_terms: int
    value: QInterval
    terms: BoundTerms
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        # serialized bounds are outward-rounded to 40 digits; the rounded
        # lower endpoint is still a true certified lower bound
        rounded_lo = round_fraction(self.value.lo, 40, up=False)
        return {
            "schema_version": 1,
            "kind": self.kind,
            "p": self.p,
            "n": self.n,
            "truncation": self.truncation,
            "zeta_terms": self.zeta_terms,
            "lower_bound_decimal": float(rounded_lo),
            "lower_bound_rational_lo": str(rounded_lo),
            "value": self.value.to_json(),
            "terms": {
                "zeta_reciprocal": self.terms.zeta_reciprocal.to_json(),
                "sym_main": self.terms.sym_main.to_json(),
                "sym_aux": self.terms.sym_aux.to_json(),
                "ordinary_weight": str(self.terms.ordinary_weight),
                "anomalous_weight": str(self.terms.anomalous_weight),
            },
            "notes": list(self.notes),
        }


def _bound_report(kind: str, p: int, n: int, aux_index: int,
                  truncation: int | None, zeta_terms: int,
                  notes: tuple[str, ...] = ()) -> BoundReport:
    check_prime(p, 5)
    if truncation is None:
        truncation = default_truncation(p)
    _check_truncation(n, truncation)  # before the census and the exact zeta sum
    w_ord, w_anom = class_weights(p)  # checks the cap on p before the sums
    z = zeta_reciprocal(p, zeta_terms)
    e_main, e_aux = _symmetric_sums(n, p, truncation, (n, aux_index))
    value = z * (e_main * w_ord + e_aux * w_anom)
    terms = BoundTerms(z, e_main, e_aux, w_ord, w_anom)
    return BoundReport(kind, p, n, truncation, zeta_terms, value, terms, notes)


def selmer_growth_bound(p: int, n: int, truncation: int | None = None,
                        zeta_terms: int = DEFAULT_ZETA_TERMS) -> BoundReport:
    """Certified lower bound for the density of curves with good ordinary
    reduction at p whose dual Selmer group needs at least n generators.

    Combines the symmetric sums of orders n (ordinary term) and n - 1
    (anomalous term); requires n >= 1.
    """
    if n < 1:
        raise DomainError("selmer_growth_bound requires n >= 1")
    return _bound_report(KIND_SELMER_GROWTH, p, n, n - 1, truncation, zeta_terms)


def mu_lambda_bound(p: int, n: int, truncation: int | None = None,
                    zeta_terms: int = DEFAULT_ZETA_TERMS) -> BoundReport:
    """Identical value to selmer_growth_bound: mu + lambda >= g always."""
    report = selmer_growth_bound(p, n, truncation, zeta_terms)
    return dataclasses.replace(report, kind=KIND_MU_LAMBDA)


def euler_divisibility_bound(p: int, n: int, truncation: int | None = None,
                             zeta_terms: int = DEFAULT_ZETA_TERMS) -> BoundReport:
    """Certified lower bound for the density of curves whose Euler term at p
    is divisible by p^n (or whose rank is at least 2).

    Combines the symmetric sums of orders n and n - 2; n >= 0, where n = 0
    degenerates to the plain ordinary-class density.
    """
    if n < 0:
        raise DomainError("euler_divisibility_bound requires n >= 0")
    notes: tuple[str, ...] = ()
    if n == 0:
        notes = ("n = 0 reduces to the good-ordinary-nonanomalous density; "
                 "the divisibility condition p^0 | * is vacuous",)
    return _bound_report(KIND_EULER_DIVISIBILITY, p, n, n - 2, truncation, zeta_terms, notes)


@dataclass(frozen=True)
class FamilyDensity:
    """Exact density of one prescribed-growth congruence family next to the
    simplified closed-form lower bound for the same family."""

    p: int
    k: int
    sigma: tuple[int, ...]
    anomalous: bool
    exact: QInterval
    stated_bound: QInterval


def growth_family_density(sigma: Sequence[int], k: int, p: int, anomalous: bool = False,
                          truncation: int | None = None,
                          zeta_terms: int = DEFAULT_ZETA_TERMS) -> FamilyDensity:
    """Density of the family: good ordinary (resp. anomalous) at p, Kodaira
    type I_{jp} with 1 <= j <= k at each ell in sigma, and no type I_m with
    m >= p at any other prime ell >= 5.

    `exact` encloses

        zeta(10) * prod_{ell not in sigma+{2,3,p}} (1 - ell^-10 - (ell-1)/ell^(p+1))
                 * prod_{ell in sigma} sum_{j<=k} (ell-1)^2/ell^(jp+2)
                 * N_class / p^2

    with the infinite product enclosed by exact factors up to the truncation
    point and a one-sided tail.  `stated_bound` is the simplified strict
    lower bound (1/zeta(p)) * prod_sigma-normalized * p^8 N_class/(p^10-1),
    where each sigma factor is divided by the minimal density 1 - ell^-10;
    the exact density always exceeds it.  Every local factor is read from
    `density`, and p^8 N_class/(p^10-1) is the weight from class_weights.
    """
    check_prime(p, 5)
    if k < 1:
        raise DomainError("k must be >= 1")
    sigma = tuple(sorted(set(int(ell) for ell in sigma)))
    for ell in sigma:
        _check_index_prime(ell, p)
    if truncation is None:
        truncation = default_truncation(p)
    _check_truncation(k, truncation)

    counts = ffcurve.residue_class_counts(p)
    explicit = counts.anomalous_density if anomalous else counts.ordinary_density
    w_ord, w_anom = class_weights(p)
    stated = w_anom if anomalous else w_ord
    for ell in sigma:
        mass = sum(density.density_In(ell, j * p) for j in range(1, k + 1))
        explicit *= mass
        stated *= mass / density.minimal_density(ell)
    excluded = set(sigma) | {2, 3, p}
    for ell in sieve_primes(truncation):
        if ell not in excluded:
            explicit *= density.minimal_density(ell) - density.density_In_at_least(ell, p)
    # every omitted factor 1 - eps_ell has eps_ell < ell^-10 + ell^-p
    tail_lo = 1 - (Fraction(1, 9 * truncation**9)
                   + Fraction(1, (p - 1) * truncation ** (p - 1)))
    if tail_lo <= 0:
        raise TruncationError(f"tail bound vacuous at truncation {truncation}")
    exact = zeta_enclosure(10, zeta_terms) * QInterval(tail_lo, Fraction(1)) * explicit
    stated_bound = zeta_reciprocal(p, zeta_terms) * stated
    return FamilyDensity(p, k, sigma, anomalous, exact, stated_bound)
