"""Certified lower bounds for densities of curves with prescribed growth.

Every bound here has the shape

    (1/zeta(p)) * ( e_n * W + e_m * W' )

where W = p^8 * N_ord / (p^10 - 1) and W' = p^8 * N_anom / (p^10 - 1) are
exact weights built from the mod-p census, and e_j is the j-th elementary
symmetric function of the weights

    f(ell) = ell^8 (ell-1)^2 / ((ell^10 - 1)(ell^p - 1))

over all primes ell outside {2, 3, p}.  f(ell) is the relative density
(within minimal pairs at ell) of Kodaira types I_m with p | m, m >= 1, split
or not, while p | c_ell needs split I_m, half of them: a survey's strict ratio
need not sit above lo.  f stays while bench/reference.json pins every lo.

The weights are exact rationals.  The long sweeps (e_j over the primes <= L,
the partial sum of zeta(s), a family's cofinite product) keep integers over
a fixed power of two, lo rounded down and hi up at every step (Moore,
Kearfott & Cloud 2009); every term is nonnegative, so they enclose the exact
values.  Infinite objects are enclosed one-sidedly in the safe direction:
1/zeta(p) from below via a partial sum plus integral tail for zeta(p), and
e_j from below by truncating to primes <= L (every omitted term is
positive), so the reported .lo endpoints are true lower bounds of the
displayed expressions at any truncation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import ffcurve
from .arith import check_prime, integer_nth_root, is_prime, sieve_primes
from .errors import DomainError, ExcludedPrimeError, TruncationError
from .intervals import WORKING_BITS, QInterval, outward

DEFAULT_ZETA_TERMS = 200
MAX_TRUNCATION = 1 << 24  # the sums sieve every prime up to the truncation
MAX_ZETA_TERMS = 1 << 12  # a resource limit: the zeta(s) partial sum costs `terms` divisions
MAX_ORDER = 1 << 10  # a resource limit: the sums keep n + 1 orders, each updated once per prime

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
    return Fraction(*_weight_ratio(ell, p))


def _weight_ratio(ell: int, p: int) -> tuple[int, int]:
    """f(ell) as (numerator, denominator), not reduced, for checked arguments."""
    return ell**8 * (ell - 1) ** 2, (ell**10 - 1) * (ell**p - 1)


def _check_truncation(truncation: int) -> None:
    """The sums run over the primes up to a truncation >= 11 at every order, the
    tail dividing by a power of it, and no truncation may pass MAX_TRUNCATION."""
    if truncation < 11:
        raise TruncationError("truncation must be >= 11")
    if truncation > MAX_TRUNCATION:
        raise TruncationError(f"truncation {truncation} exceeds the cap 2^24")


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise DomainError(f"order n = {n} exceeds the cap 2^10")


def prime_symmetric_sum(n: int, p: int, truncation: int) -> QInterval:
    """Enclosure of the n-th elementary symmetric function of {f(ell)}.

    The index set is all primes ell outside {2, 3, p}.  Conventions:
    e_0 = 1 and e_n = 0 for n < 0 (exact point intervals).  The lower
    endpoint is the symmetric function over primes <= truncation, rounded
    down; the upper endpoint adds sum_{k=1..n} e_{n-k} * T^k / k! with T
    bounding the total weight of the omitted primes.
    """
    check_prime(p, 5)
    if n < 0:
        return QInterval.point(0)
    _check_order(n)
    _check_truncation(truncation)
    e, swept = _symmetric_sums(n, p, truncation)
    return _with_tail(e, n, p, swept)


def _symmetric_sums(n: int, p: int, truncation: int) -> tuple[list[QInterval], int]:
    """Enclosures of e_0..e_n over the primes <= swept alone, n >= 0, from
    one sweep over them, and swept <= truncation (checked by the caller).

    Order j is kept as integers lo[j] <= hi[j] over 2^bits[j].  When the
    j-th prime ell gives e_j its first term, bits[j] is set to bits[j - 1]
    plus the bit length of 1/f(ell), so 2^-bits[j] is below 2^-WORKING_BITS
    of the product of the first j weights, itself a term of e_j.  So each
    rounding is below 2^-WORKING_BITS of e_j, and e_j.lo does not depend on n.
    Once e_n has a term, the sweep stops at the first prime ell = swept whose
    lower steps are all 0: f falls as ell grows, so every later lower step is
    0 too, and each lo is what the sweep to the truncation gives.
    """
    bits = [WORKING_BITS] * (n + 1)
    lo, hi = [1 << WORKING_BITS] + [0] * n, [1 << WORKING_BITS] + [0] * n
    reached = 0  # the orders with a term so far
    for ell in sieve_primes(truncation) if n else ():
        if ell < 5 or ell == p:
            continue
        num, den = _weight_ratio(ell, p)
        if reached < n:
            reached += 1
            bits[reached] = bits[reached - 1] + (den // num).bit_length()
        moved = False
        for j in range(reached, 0, -1):
            step = outward(num << (bits[j] - bits[j - 1]), den, lo[j - 1], hi[j - 1])
            lo[j], hi[j] = lo[j] + step[0], hi[j] + step[1]
            moved = moved or step[0] > 0
        if not moved and reached == n:
            truncation = ell  # the last prime swept
            break
    return ([QInterval(Fraction(l, 1 << b), Fraction(h, 1 << b)) for l, h, b in zip(lo, hi, bits)],
            truncation)


def _with_tail(e: list[QInterval], m: int, p: int, swept: int) -> QInterval:
    """The enclosure of e_m from the sums e of orders 0..m or more over the
    primes <= swept: the upper endpoint is sum_k e_(m-k).hi * T^k / k!."""
    if m < 0:
        return QInterval.point(0)
    # f(ell) < ell^(1-p), so the omitted mass T is below the integral of t^(1-p)
    tail = Fraction(1, (p - 2) * swept ** (p - 2))
    return QInterval(e[m].lo, sum(e[m - k].hi * tail**k / math.factorial(k) for k in range(m + 1)))


def _check_zeta_terms(terms: int) -> None:
    if not 10 <= terms <= MAX_ZETA_TERMS:
        raise DomainError(f"zeta_terms {terms} must be >= 10 and within the cap 2^12")


def zeta_enclosure(s: int, terms: int) -> QInterval:
    """Enclosure of zeta(s) for integer s >= 2.

    zeta(s) lies between the partial sum over m <= terms, rounded down on the
    scale 2^-WORKING_BITS, and that sum rounded up plus the integral tail
    terms^(1-s)/(s-1).
    """
    if s < 2:
        raise DomainError("zeta_enclosure requires s >= 2")
    _check_zeta_terms(terms)
    one = 1 << WORKING_BITS
    top = min(terms, integer_nth_root(one, s))  # each later term, m^s > one, rounds to [0, 1]
    lo, hi = (sum(ends) for ends in zip(*(outward(1, m**s, one, one) for m in range(1, top + 1))))
    return QInterval(Fraction(lo, one),
                     Fraction(hi + terms - top, one) + Fraction(1, (s - 1) * terms ** (s - 1)))


def zeta_reciprocal(s: int, terms: int = DEFAULT_ZETA_TERMS) -> QInterval:
    """Enclosure of 1/zeta(s) with a certified lower endpoint."""
    return zeta_enclosure(s, terms).reciprocal()


def class_weights(p: int) -> tuple[Fraction, Fraction]:
    """(W, W') = p^8/(p^10 - 1) times the ordinary and anomalous counts."""
    counts = ffcurve.residue_class_counts(p)
    scale = Fraction(p**8, p**10 - 1)
    return scale * counts.ordinary, scale * counts.anomalous


class BoundTerms(NamedTuple):
    zeta_reciprocal: QInterval
    sym_main: QInterval
    sym_aux: QInterval
    ordinary_weight: Fraction
    anomalous_weight: Fraction


class BoundReport(NamedTuple):
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
        # endpoints are 40-digit decimal strings rounded outward, so the
        # serialized lower endpoint is still a true certified lower bound
        value = self.value.to_json()
        return {
            "schema_version": 2,
            "kind": self.kind,
            "p": self.p,
            "n": self.n,
            "truncation": self.truncation,
            "zeta_terms": self.zeta_terms,
            "lower_bound_rational_lo": value["lo"],
            "value": value,
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
                  truncation: int | None, zeta_terms: int | None,
                  notes: tuple[str, ...] = ()) -> BoundReport:
    check_prime(p, 5)
    truncation = default_truncation(p) if truncation is None else truncation
    zeta_terms = DEFAULT_ZETA_TERMS if zeta_terms is None else zeta_terms
    _check_order(n)  # before the census and the exact zeta sum
    _check_truncation(truncation)
    _check_zeta_terms(zeta_terms)
    w_ord, w_anom = class_weights(p)  # checks the cap on p before the sums
    z = zeta_reciprocal(p, zeta_terms)
    e, swept = _symmetric_sums(n, p, truncation)
    e_main, e_aux = (_with_tail(e, m, p, swept) for m in (n, aux_index))
    value = z * (e_main * w_ord + e_aux * w_anom)
    terms = BoundTerms(z, e_main, e_aux, w_ord, w_anom)
    return BoundReport(kind, p, n, truncation, zeta_terms, value, terms, notes)


def selmer_growth_bound(p: int, n: int, truncation: int | None = None,
                        zeta_terms: int | None = None) -> BoundReport:
    """Certified lower bound for the density of curves with good ordinary
    reduction at p whose dual Selmer group needs at least n generators.

    Combines the symmetric sums of orders n (ordinary term) and n - 1
    (anomalous term); requires n >= 1.
    """
    if n < 1:
        raise DomainError("selmer_growth_bound requires n >= 1")
    return _bound_report(KIND_SELMER_GROWTH, p, n, n - 1, truncation, zeta_terms)


def mu_lambda_bound(p: int, n: int, truncation: int | None = None,
                    zeta_terms: int | None = None) -> BoundReport:
    """Identical value to selmer_growth_bound: mu + lambda >= g always."""
    report = selmer_growth_bound(p, n, truncation, zeta_terms)
    return report._replace(kind=KIND_MU_LAMBDA)


def euler_divisibility_bound(p: int, n: int, truncation: int | None = None,
                             zeta_terms: int | None = None) -> BoundReport:
    """Certified lower bound for the density of curves whose Euler term at p
    is divisible by p^n (or whose rank is at least 2).

    Combines the symmetric sums of orders n and n - 2; n >= 0, where n = 0
    degenerates to the plain ordinary-class density.
    """
    if n < 0:
        raise DomainError("euler_divisibility_bound requires n >= 0")
    notes = ("n = 0 reduces to the good-ordinary-nonanomalous density; "
             "the divisibility condition p^0 | * is vacuous",) if n == 0 else ()
    return _bound_report(KIND_EULER_DIVISIBILITY, p, n, n - 2, truncation, zeta_terms, notes)


class FamilyDensity(NamedTuple):
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

    with the infinite product enclosed by density.cofinite_product.
    `stated_bound` is the simplified strict lower bound (1/zeta(p)) *
    prod_sigma-normalized * p^8 N_class/(p^10-1), where each sigma factor is
    divided by the minimal density 1 - ell^-10; the exact density always
    exceeds it.  Every local factor is read from `density`, and
    p^8 N_class/(p^10-1) is the weight from class_weights.
    """
    from . import density  # the one reader here, so a bound report loads no density
    check_prime(p, 5)
    if k < 1:
        raise DomainError("k must be >= 1")
    sigma = tuple(sorted(set(int(ell) for ell in sigma)))
    for ell in sigma:
        _check_index_prime(ell, p)
    truncation = default_truncation(p) if truncation is None else truncation
    _check_truncation(truncation)

    counts = ffcurve.residue_class_counts(p)
    explicit = counts.anomalous_density if anomalous else counts.ordinary_density
    w_ord, w_anom = class_weights(p)
    stated = w_anom if anomalous else w_ord
    for ell in sigma:
        mass = sum(density.density_In(ell, j * p) for j in range(1, k + 1))
        explicit *= mass
        stated *= mass / density.minimal_density(ell)
    product = density.cofinite_product({*sigma, 2, 3, p}, truncation, p)
    exact = zeta_enclosure(10, zeta_terms) * product * explicit
    stated_bound = zeta_reciprocal(p, zeta_terms) * stated
    return FamilyDensity(p, k, sigma, anomalous, exact, stated_bound)
