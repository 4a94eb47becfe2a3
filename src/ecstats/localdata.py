"""Local invariants of integral short Weierstrass pairs y^2 = x^3 + a x + b.

Covers the naive height, ell-adic valuations, minimality, the Kodaira
classification at primes ell >= 5, the split/nonsplit dichotomy for
multiplicative reduction, Tamagawa p-parts, and the two growth invariants
at p built from them: the count of "p divides a Tamagawa number" primes plus
the anomalous flag, and the Euler-term valuation.  One call of
tamagawa_anomaly_count computes both from one factorization of the
discriminant and one point count at p, and returns that local data too.

Primes 2 and 3 are deliberately out of scope: classifying bad reduction
there would require the full Tate algorithm, and every consumer in this
package filters such curves into a separate bucket instead.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

from . import ffcurve
from .arith import check_prime, factorize, integer_nth_root, sieve_primes
from .errors import (
    BadReductionError,
    DomainError,
    NotMinimalError,
    NotMultiplicativeError,
    SingularCurveError,
    SmallBadPrimeError,
)


def discriminant(a: int, b: int) -> int:
    return 4 * a * a * a + 27 * b * b


def naive_height(a: int, b: int) -> int:
    """max(4|a|^3, 27 b^2)."""
    return max(4 * abs(a) ** 3, 27 * b * b)


def valuation(n: int, ell: int) -> int | float:
    """Largest k with ell^k | n; math.inf for n == 0.  ell must be >= 2."""
    if ell < 2:
        raise DomainError(f"valuation needs ell >= 2, got {ell}")
    if n == 0:
        return math.inf
    k = 0
    while n % ell == 0:
        n //= ell
        k += 1
    return k


def is_minimal_at(a: int, b: int, ell: int) -> bool:
    """Minimal at ell unless v(a) >= 4 and v(b) >= 6."""
    return not (valuation(a, ell) >= 4 and valuation(b, ell) >= 6)


def _minimality_candidates(a: int, b: int) -> Sequence[int]:
    # non-minimality at ell needs ell^4 | a and ell^6 | b, so ell^4 | gcd(a, b)
    # and, when b != 0, ell <= |b|^(1/6)
    bound = integer_nth_root(math.gcd(a, b), 4)
    if b != 0:
        bound = min(bound, integer_nth_root(abs(b), 6))
    if bound > 1 << 24:
        raise DomainError(f"minimality of ({a}, {b}) would need primes up to {bound}, past 2^24")
    return sieve_primes(bound)


def is_globally_minimal(a: int, b: int) -> bool:
    """True when (a, b) is minimal at every prime.  Requires delta != 0."""
    if discriminant(a, b) == 0:
        raise SingularCurveError(f"({a}, {b}) is singular")
    return all(is_minimal_at(a, b, ell) for ell in _minimality_candidates(a, b))


class ReductionKind(Enum):
    GOOD = "good"
    MULTIPLICATIVE = "multiplicative"
    ADDITIVE = "additive"


class KodairaType(NamedTuple):
    kind: ReductionKind
    ell: int
    n: int | None = None  # v_ell(delta), set only for multiplicative types

    @property
    def is_multiplicative(self) -> bool:
        return self.kind is ReductionKind.MULTIPLICATIVE

    def __str__(self) -> str:
        if self.kind is ReductionKind.GOOD:
            return "I0"
        if self.kind is ReductionKind.MULTIPLICATIVE:
            return f"I{self.n}"
        return "additive"


def _kodaira_type(a: int, b: int, ell: int, v: int) -> KodairaType:
    # ell is a prime >= 5 and v = v_ell(delta) with delta != 0
    if not is_minimal_at(a, b, ell):
        raise NotMinimalError(f"({a}, {b}) is not minimal at {ell}")
    if v == 0:
        return KodairaType(ReductionKind.GOOD, ell)
    if a % ell == 0 and b % ell == 0:
        return KodairaType(ReductionKind.ADDITIVE, ell)
    return KodairaType(ReductionKind.MULTIPLICATIVE, ell, v)


def kodaira_type(a: int, b: int, ell: int) -> KodairaType:
    """Kodaira classification at a prime ell >= 5 for a minimal pair.

    For minimal (a, b) with delta != 0 and ell >= 5 the reduction is
    multiplicative of type I_n, n = v_ell(delta) >= 1, exactly when
    (a, b) is not (0, 0) mod ell; it is good when v_ell(delta) = 0 and
    additive when (a, b) == (0, 0) mod ell.
    """
    check_prime(ell, 5)
    delta = discriminant(a, b)
    if delta == 0:
        raise SingularCurveError(f"({a}, {b}) is singular")
    return _kodaira_type(a, b, ell, int(valuation(delta, ell)))


def kodaira_types(a: int, b: int) -> tuple[tuple[int, KodairaType], ...]:
    """(ell, kodaira_type(a, b, ell)) for each prime ell >= 5 dividing delta,
    in increasing order, read off one factorization of delta."""
    delta = discriminant(a, b)
    if delta == 0:
        raise SingularCurveError(f"({a}, {b}) is singular")
    return tuple((ell, _kodaira_type(a, b, ell, v))
                 for ell, v in sorted(factorize(delta).items()) if ell >= 5)


def _split_from_residues(a_mod: int, b_mod: int, ell: int) -> bool:
    # the node is the double root e = -3b / 2a of x^3 + ax + b mod ell, its
    # slopes +-sqrt(3e), and 3e = -9b / 2a = 9 (-2ab) / (2a)^2: Euler's
    # criterion on -2ab, which is 0 (not split) where a or b is
    return pow(-2 * a_mod * b_mod, (ell - 1) // 2, ell) == 1


def is_split_multiplicative(a: int, b: int, ell: int) -> bool:
    """Whether the node's tangent slopes are rational over F_ell.

    The slopes are +-sqrt(3e) for the double root e, so the reduction is
    split exactly when 3e is a nonzero quadratic residue mod ell.
    Raises NotMultiplicativeError unless the reduction type is I_n, n >= 1.
    """
    kt = kodaira_type(a, b, ell)
    if not kt.is_multiplicative:
        raise NotMultiplicativeError(f"type at {ell} is {kt}, not I_n with n >= 1")
    return _split_from_residues(a % ell, b % ell, ell)


def _tamagawa_exponent(a: int, b: int, kt: KodairaType, p: int) -> int:
    # v_p(c_ell) at ell = kt.ell != p, p >= 5: split I_n has c_ell = n, and
    # every other type has c_ell <= 4
    if not kt.is_multiplicative or not _split_from_residues(a % kt.ell, b % kt.ell, kt.ell):
        return 0
    return int(valuation(kt.n, p))


def tamagawa_p_part(a: int, b: int, ell: int, p: int) -> int:
    """p-part of the Tamagawa number c_ell, for distinct primes ell, p >= 5.

    Split I_n has c_ell = n, so the p-part is p^(v_p(n)); nonsplit I_n has
    c_ell in {1, 2} and additive types have c_ell <= 4, both coprime to
    p >= 5; good reduction gives 1.
    """
    check_prime(p, 5)
    if ell == p:
        raise DomainError("tamagawa_p_part requires ell != p")
    return p ** _tamagawa_exponent(a, b, kodaira_type(a, b, ell), p)


class TamagawaAnomalyCount(NamedTuple):
    """Count of primes where p divides the Tamagawa number, plus the
    anomalous flag at p; total is their sum.  euler_valuation is the sum of
    the exponents v_p(c_ell) plus twice the flag.  They are read from kodaira,
    the types at the primes ell >= 5 dividing delta, and kind, the class at p."""

    tamagawa_primes: int
    anomalous_flag: int
    total: int
    euler_valuation: int
    kodaira: tuple[tuple[int, KodairaType], ...]
    kind: ffcurve.PointClass


def tamagawa_anomaly_count(a: int, b: int, p: int) -> TamagawaAnomalyCount:
    """The growth invariant at p: #{ell != p : p | c_ell} + [p | #E(F_p)],
    and the Euler-term valuation read off the same exponents and flag.

    Requires a globally minimal pair with good reduction at 2, 3 and p; the
    bad primes come from one factorization of the discriminant.
    """
    check_prime(p, 5)
    delta = discriminant(a, b)
    if delta == 0:
        raise SingularCurveError(f"({a}, {b}) is singular")
    if delta % 2 == 0 or delta % 3 == 0:
        raise SmallBadPrimeError("bad reduction at 2 or 3 is out of scope")
    if delta % p == 0:
        raise BadReductionError(f"p = {p} divides the discriminant")
    # minimal at 2 and 3; at ell >= 5 non-minimality needs ell | delta, checked there
    kodaira = kodaira_types(a, b)
    kind = ffcurve.classify_residue(p, a % p, b % p).kind
    exponents = [_tamagawa_exponent(a, b, kt, p) for _, kt in kodaira]
    flag = int(kind is ffcurve.PointClass.ANOMALOUS)
    n_tam = sum(1 for v in exponents if v > 0)
    return TamagawaAnomalyCount(n_tam, flag, n_tam + flag, sum(exponents) + 2 * flag, kodaira, kind)


def euler_term_valuation(a: int, b: int, p: int) -> int:
    """v_p of (prod_ell c_ell^(p)) * alpha_p^2, the computable Euler-term part.

    alpha_p = #E(F_p)[p] is p when p is anomalous and 1 otherwise (the
    p-torsion of the reduction is at most one copy of Z/p for p >= 5), so
    its square contributes twice the anomalous flag.
    """
    return tamagawa_anomaly_count(a, b, p).euler_valuation
