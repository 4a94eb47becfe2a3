from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest

from ecstats import arith, density, localdata, verify
from ecstats.density import CongruenceDatum
from ecstats.errors import NotPrimeError, PrimeTooSmallError, TruncationError
from ecstats.intervals import WORKING_BITS, QInterval, outward

mp.mp.dps = 40


def mp_rational(x) -> Fraction:
    """High-precision decimal of an mpmath value as an exact Fraction."""
    return Fraction(mp.nstr(x, 30))


def assert_contains(interval: QInterval, value: Fraction, slack=Fraction(1, 10**25)):
    assert interval.lo - slack <= value <= interval.hi + slack, \
        f"{value} outside {interval}"


def test_minimal_density_values():
    assert density.minimal_density(2) == Fraction(1023, 1024)
    assert density.minimal_density(3) == Fraction(59048, 59049)
    assert density.minimal_density(5) == Fraction(9765624, 9765625)


def test_kodaira_density_values():
    assert density.density_good(7) == Fraction(6, 7)
    assert density.density_In(5, 1) == Fraction(16, 125)
    assert density.density_In_at_least(5, 1) == Fraction(4, 25)


def test_kodaira_density_guards():
    with pytest.raises(PrimeTooSmallError):
        density.density_In(3, 1)
    with pytest.raises(NotPrimeError):
        density.density_good(6)
    with pytest.raises(ValueError):
        density.density_In(5, 0)


@pytest.mark.parametrize("ell, m, each", [(5, 1, 40), (5, 2, 200), (7, 1, 126), (7, 2, 882)])
def test_half_of_the_In_classes_split(ell, m, each):
    """Of the pairs mod ell^(m+1) of type I_m (ell ∤ a, v_ell(delta) = m),
    as many split as not: a twist by a non-residue unit u keeps v_ell(delta)
    and multiplies -2ab by u^5, so it swaps the two.  Together they make
    density_In(ell, m) of all pairs, so split I_m has half the density that
    the bounds' weight f(ell) counts, split or not."""
    mod = ell ** (m + 1)
    split = Counter(localdata._split_from_residues(a % ell, b % ell, ell)
                    for a in range(mod) if a % ell for b in range(mod)
                    if (4 * a**3 + 27 * b * b) % mod and (4 * a**3 + 27 * b * b) % ell**m == 0)
    assert split == {True: each, False: each}
    assert Fraction(2 * each, mod * mod) == density.density_In(ell, m)


def test_valuation_box_measure():
    assert density.valuation_box_measure(5, 0, 0) == 1
    assert density.valuation_box_measure(5, 1, 2) == Fraction(1, 125)
    assert density.valuation_box_measure(7, 4, 6) == Fraction(1, 7**10)


def test_local_measure_check_reports_a_wrong_closed_form(monkeypatch):
    monkeypatch.setattr(density, "density_In", lambda ell, n: Fraction(1, ell ** (n + 2)))
    results = verify.check_local_measures()
    failed = [r.name for r in results if not r.passed]
    assert failed == [r.name for r in results if r.name.startswith("I_")] and len(failed) == 10


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_telescoping_exact(ell):
    [r] = verify.check_telescoping((ell,), 50)
    assert r.passed, r.name


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 17])
def test_completeness_gap(ell):
    gap = density.minimal_density(ell) - density.density_good(ell) \
        - density.density_In_at_least(ell, 1)
    assert gap == Fraction(1, ell**2) - Fraction(1, ell**10)
    assert gap > 0


def test_congruence_density_finite():
    assert density.congruence_density(CongruenceDatum()) == QInterval.point(1)
    datum = CongruenceDatum({5: Fraction(16, 125)})
    assert density.congruence_density(datum) == QInterval.point(Fraction(16, 125))


def test_congruence_density_minimal_everywhere():
    iv = density.congruence_density(CongruenceDatum(minimal_elsewhere=True), 100)
    assert_contains(iv, mp_rational(1 / mp.zeta(10)))
    # zeta(10) = pi^10 / 93555 gives an independent route to the same value
    assert_contains(iv, mp_rational(93555 / mp.pi**10))
    assert iv.hi - iv.lo < Fraction(1, 10**18)


def test_congruence_density_nesting():
    datum = CongruenceDatum(minimal_elsewhere=True)
    coarse = density.congruence_density(datum, 50)
    fine = density.congruence_density(datum, 100)
    assert coarse.encloses(fine)
    assert fine.lo >= coarse.lo


def _prescribed_In(sigma, n, truncation):
    """Minimal pairs of Kodaira type I_n at every ell in sigma."""
    datum = CongruenceDatum({ell: density.density_In(ell, n) for ell in sigma}, True)
    return density.congruence_density(datum, truncation)


def test_prescribed_In_density():
    iv = _prescribed_In([5], 1, 100)
    expected = mp_rational((mp.mpf(16) / 125 / mp.zeta(10)) / (1 - mp.mpf(5) ** -10))
    assert_contains(iv, expected)
    empty = _prescribed_In([], 1, 100)
    assert_contains(empty, mp_rational(1 / mp.zeta(10)))
    two = _prescribed_In([5, 7], 1, 100)
    expected2 = mp_rational(
        (mp.mpf(16) / 125 * (mp.mpf(36) / 343) / mp.zeta(10))
        / ((1 - mp.mpf(5) ** -10) * (1 - mp.mpf(7) ** -10)))
    assert_contains(two, expected2)


def test_measure_validation():
    with pytest.raises(ValueError):
        CongruenceDatum({5: Fraction(9, 8)})
    with pytest.raises(NotPrimeError):
        CongruenceDatum({6: Fraction(1, 2)})


def test_truncation_guard():
    with pytest.raises(TruncationError):
        density.minimal_tail(0)
    ok = density.minimal_tail(2)
    assert 0 < ok.lo < 1 and ok.hi == 1


def test_cofinite_product_trusts_the_sieve(monkeypatch):
    """The product reads each factor's closed form at a prime the sieve has
    proved, with no primality test per factor, and sweeps the same rationals
    as minimal_density(ell) - density_In_at_least(ell, p)."""
    calls = []
    is_prime = arith.is_prime

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    product = density.cofinite_product({2, 3, 211}, 2210, 211)
    assert len(arith.primes_in(5, 2210)) > 300 and not calls, calls
    monkeypatch.undo()
    lo = hi = 1 << WORKING_BITS
    for ell in arith.primes_in(5, 2210):
        if ell != 211:
            f = density.minimal_density(ell) - density.density_In_at_least(ell, 211)
            lo, hi = outward(f.numerator, f.denominator, lo, hi)
    assert product == density.minimal_tail(2210, 211) * QInterval(
        Fraction(lo, 1 << WORKING_BITS), Fraction(hi, 1 << WORKING_BITS))
