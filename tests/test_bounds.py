import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from ecstats import arith, bounds, ffcurve, verify
from ecstats.errors import DomainError
from ecstats.intervals import WORKING_BITS, QInterval, outward, round_fraction

mp.mp.dps = 40


def test_kodaira_multiple_weight_exact():
    f = bounds.kodaira_multiple_weight(5, 7)
    assert f == Fraction(6250000, 9765624 * 78124)
    assert f == Fraction(5**8 * 16, (5**10 - 1) * (5**7 - 1))


def test_kodaira_multiple_weight_exclusions():
    for ell in (2, 3, 7):
        with pytest.raises(DomainError, match=r"is not a prime >= 5 other than p = 7"):
            bounds.kodaira_multiple_weight(ell, 7)
    with pytest.raises(DomainError, match=r"is not a prime >= 5 other than p = 7"):
        bounds.kodaira_multiple_weight(9, 7)


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("ell", [5, 7, 11, 13, 101])
def test_weight_majorant(ell, p):
    if ell == p:
        return
    assert bounds.kodaira_multiple_weight(ell, p) < Fraction(1, ell ** (p - 1))


def test_weight_is_normalized_deep_In_sum():
    # f(ell) equals sum_{j>=1} density_In(ell, jp) / minimal_density(ell):
    # compare against a long partial sum plus the geometric remainder
    from ecstats import density
    ell, p = 5, 7
    partial = sum(density.density_In(ell, j * p) for j in range(1, 30))
    remainder = density.density_In_at_least(ell, 30 * p)  # >= the omitted sum
    f = bounds.kodaira_multiple_weight(ell, p) * density.minimal_density(ell)
    assert partial < f < partial + remainder


def test_symmetric_sum_conventions():
    results = verify.check_symmetric_conventions(7)
    assert len(results) == 2
    assert all(r.passed for r in results), results


def test_symmetric_sum_order_one():
    """The swept e_1 encloses the exact sum of the weights within 2^-200 (and
    the zeta and family sweeps of the same check enclose theirs)."""
    results = verify.check_sweeps_enclose_exact(sums=((1, 7, 100),))
    assert all(r.passed for r in results), results
    iv = bounds.prime_symmetric_sum(1, 7, 100)
    direct = sum(bounds.kodaira_multiple_weight(ell, 7)
                 for ell in (5, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                             59, 61, 67, 71, 73, 79, 83, 89, 97))
    assert iv.lo <= direct <= iv.lo + direct / 2**200
    assert iv.hi - iv.lo < Fraction(1, 10**9)
    # dominated by the ell = 5 term
    assert bounds.kodaira_multiple_weight(5, 7) / iv.lo > Fraction(99, 100)


def test_symmetric_sum_truncation_guard():
    with pytest.raises(DomainError, match=r"truncation must be >= 11"):
        bounds.prime_symmetric_sum(1, 7, 5)


def test_order_cap_checked_before_any_sum(monkeypatch):
    """The order n = MAX_ORDER is summed; above it, prime_symmetric_sum and
    every bound maker refuse n before the census and any sum."""
    assert bounds.prime_symmetric_sum(bounds.MAX_ORDER, 7, 11).lo == 0

    def unreachable(*args):
        raise AssertionError(f"ran with {args} above the order cap")

    for name in ("_symmetric_sums", "_with_tail", "class_weights", "zeta_reciprocal"):
        monkeypatch.setattr(bounds, name, unreachable)
    for path in (lambda n: bounds.prime_symmetric_sum(n, 7, 100),
                 lambda n: bounds.selmer_growth_bound(7, n),
                 lambda n: bounds.mu_lambda_bound(7, n),
                 lambda n: bounds.euler_divisibility_bound(7, n)):
        for n in (bounds.MAX_ORDER + 1, 10**9):
            with pytest.raises(DomainError, match="exceeds the cap 2\\^10"):
                path(n)


def test_zeta_enclosure_against_mpmath():
    for s in (5, 7, 10, 11, 13):
        iv = bounds.zeta_enclosure(s, 100)
        val = Fraction(mp.nstr(mp.zeta(s), 30))
        assert iv.lo <= val <= iv.hi
        assert iv.hi - iv.lo < Fraction(1, 10**8)
    with pytest.raises(DomainError, match="s >= 2"):
        bounds.zeta_enclosure(1, 200)


@pytest.mark.parametrize("s", [2, 3, 7, 13, 127, 128, 129, 255, 256, 257, 1009, 10007])
def test_zeta_enclosure_equals_the_full_sum(s):
    """The sum stops at the largest m with m^s <= 2^256 and adds [0, 1] for
    each later term: the enclosure equals the sum of every term's outward
    rounding, also where a power is exactly 2^256 (4^128 and 2^256) and for
    s up to 10007, plus the integral tail rounded up to whole units of
    2^-256, which lies at or above the exact tail and within one unit of it."""
    one = 1 << WORKING_BITS
    for terms in (10, 11, 200):
        lo, hi = (Fraction(sum(ends), one) for ends in
                  zip(*(outward(1, m**s, one, one) for m in range(1, terms + 1))))
        exact_tail = Fraction(1, (s - 1) * terms ** (s - 1))
        enclosure = bounds.zeta_enclosure(s, terms)
        assert enclosure == QInterval(lo, hi + Fraction(math.ceil(exact_tail * one), one))
        assert 0 <= enclosure.hi - (hi + exact_tail) < Fraction(1, one)


def test_largest_p_euler_report_at_n_0_finishes():
    """README's bounds command at p = 1048573 and n = 0 exits 0 within 5 s,
    start-up included: the zeta tail is one unit of 2^-256 there, and at
    n = 0 no tail power of the truncation is formed.  Its lo is at most
    W_ord / zeta(p) and within 1e-30 of it, relative."""
    p = 1048573
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "ecstats", "bounds", "--p", str(p), "--n", "0",
                           "--kind", "euler", "--trunc", "11", "--zeta-terms", "10"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5
    assert done.returncode == 0
    ordinary = ffcurve.residue_class_counts(p).ordinary
    with mp.workdps(80):
        lo = mp.mpf(json.loads(done.stdout)["lower_bound_rational_lo"])
        exact = mp.mpf(p**8 * ordinary) / (p**10 - 1) / mp.zeta(p)
        assert lo <= exact and exact - lo < mp.mpf("1e-30") * exact


def test_zeta_reciprocal_properties():
    iv = bounds.zeta_reciprocal(7, 100)
    val = Fraction(mp.nstr(1 / mp.zeta(7), 30))
    assert iv.lo <= val <= iv.hi
    assert iv.lo < 1
    los = [bounds.zeta_reciprocal(7, n).lo for n in (10, 20, 50, 100, 200)]
    assert all(a <= b for a, b in zip(los, los[1:]))
    big = bounds.zeta_reciprocal(101, 50)
    assert Fraction(1) - Fraction(1, 2**100) < big.hi <= 1


def test_class_weights_exact():
    w_ord, w_anom = bounds.class_weights(7)
    assert w_ord == Fraction(7**8 * 32, 7**10 - 1)
    assert w_anom == Fraction(7**8 * 4, 7**10 - 1)


def test_growth_bound_reference_windows():
    r = bounds.selmer_growth_bound(7, 1)
    assert Fraction("0.0805") < r.value.lo < Fraction("0.0815")
    r2 = bounds.selmer_growth_bound(7, 2)
    assert r2.value.lo < r.value.lo


def test_euler_bound_reference_windows():
    r0 = bounds.euler_divisibility_bound(7, 0)
    assert Fraction("0.64") < r0.value.lo < Fraction("0.66")
    assert r0.notes  # the degenerate case is flagged
    r1 = bounds.euler_divisibility_bound(7, 1)
    assert Fraction(5, 10**6) < r1.value.lo < Fraction(7, 10**6)
    # with n = 1 the anomalous term vanishes by the e_{-1} = 0 convention
    assert r1.terms.sym_aux == QInterval.point(0)
    assert r1.value == r1.terms.zeta_reciprocal * (r1.terms.sym_main * r1.terms.ordinary_weight)


def test_mu_lambda_is_growth(bound_laws):
    r = bound_laws["mu+lambda bound equals growth bound"]
    assert r.passed, r.detail


def test_truncation_monotone_and_nested(bound_laws):
    r = bound_laws["lower endpoint nondecreasing under truncation doubling"]
    assert r.passed, r.detail
    assert bound_laws["intervals nest under refinement"].passed


def test_chi_and_growth_share_symmetric_terms():
    chi = bounds.euler_divisibility_bound(7, 2)
    g = bounds.selmer_growth_bound(7, 2)
    assert chi.terms.sym_main == g.terms.sym_main
    assert chi.terms.sym_aux == bounds.prime_symmetric_sum(0, 7, g.truncation)
    assert g.terms.sym_aux == bounds.prime_symmetric_sum(1, 7, g.truncation)


def test_bound_report_sweeps_the_primes_once(monkeypatch):
    """The main and auxiliary orders come from one sweep: one weight per
    prime <= truncation outside {2, 3, p}, read from the one owner of f(ell)."""
    calls = []
    weight = bounds._weight_ratio

    def counted(ell, p):
        calls.append(ell)
        return weight(ell, p)

    monkeypatch.setattr(bounds, "_weight_ratio", counted)
    r = bounds.selmer_growth_bound(13, 3, 200)
    assert calls == [ell for ell in arith.primes_in(2, 200) if ell not in (2, 3, 13)]
    assert r.terms.sym_aux == bounds.prime_symmetric_sum(2, 13, 200)


def test_bound_report_trusts_the_sieve(monkeypatch):
    """The sweep reads f(ell) for primes the sieve has proved: a report makes
    a handful of primality tests, not one per prime <= truncation."""
    calls = []
    is_prime = arith.is_prime

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(bounds, "is_prime", counted)
    bounds.selmer_growth_bound(13, 3, 1000)
    assert len(arith.primes_in(5, 1000)) > 150 and len(calls) <= 5, calls


@pytest.mark.parametrize("p, truncation", [(13, 400), (7, 1000), (101, 1110), (13, 3000)])
def test_symmetric_sums_match_fraction_recurrence(p, truncation):
    """The outward-rounded sweep encloses the exact e_0..e_3 over the primes
    it reads within 2^-200 relative (checked by verify).  Against the
    textbook recurrence e_j += f * e_(j-1) over every prime <= truncation,
    kept exact over one common denominator, each lo is within 2^-200
    relative, and each order's enclosure, closed from the prime where its
    sweep stopped, contains the exact e_j.  e_j.lo is the same whichever
    order the sweep runs to; hi is not, since the sweep may stop at another
    prime (at p = 101, ell = 31 for n = 1 and ell = 67 for n = 3)."""
    results = verify.check_sweeps_enclose_exact(sums=((3, p, truncation),))
    assert all(r.passed for r in results), results
    swept, _ = bounds._symmetric_sums(3, p, truncation)
    for n in range(3):
        assert [s.lo for s in bounds._symmetric_sums(n, p, truncation)[0]] == \
            [s.lo for s in swept[:n + 1]]
    num = [1, 0, 0, 0]
    for ell in arith.primes_in(5, truncation):
        if ell != p:
            f, d = ell**8 * (ell - 1) ** 2, (ell**10 - 1) * (ell**p - 1)
            num = [num[0] * d] + [num[j] * d + f * num[j - 1] for j in (1, 2, 3)]
    e = [Fraction(v, num[0]) for v in num]
    assert all(s.lo <= x <= s.lo + x / 2**200 for s, x in zip(swept, e))
    assert all(e[n] <= bounds.prime_symmetric_sum(n, p, truncation).hi for n in range(4))


def _full_sweep(n, p, truncation, working=WORKING_BITS):
    """e_0..e_n swept over every prime <= truncation on the scale 2^-working:
    the loop of bounds._symmetric_sums with no stop."""
    bits = [working] * (n + 1)
    lo, hi = [1 << working] + [0] * n, [1 << working] + [0] * n
    reached = 0
    for ell in arith.primes_in(5, truncation):
        if ell == p:
            continue
        num, den = bounds._weight_ratio(ell, p)
        if reached < n:
            reached += 1
            bits[reached] = bits[reached - 1] + (den // num).bit_length()
        for j in range(reached, 0, -1):
            step = outward(num << (bits[j] - bits[j - 1]), den, lo[j - 1], hi[j - 1])
            lo[j], hi[j] = lo[j] + step[0], hi[j] + step[1]
    return [QInterval(Fraction(l, 1 << b), Fraction(h, 1 << b)) for l, h, b in zip(lo, hi, bits)]


@pytest.mark.parametrize("n, p, truncation, stops", [(3, 1009, 10190, (7, 11, 17)),
                                                     (1, 3001, 30110, (7,))])
def test_stopped_sweep_keeps_the_full_sweeps_lo(n, p, truncation, stops):
    """The sweep of each order m <= n stops at the first prime whose lower
    steps all floor to 0, and its lo endpoints equal those of the sweep over
    every prime <= truncation exactly.  Its enclosure closed from there
    contains the full sweep run on a scale finer by 2^-p, whose rounding is
    below the closing tail; on the same scale, every prime past the stop adds
    a rounding unit to the full sweep's hi, more than that tail.  The closed
    hi exceeds the swept one by at least the exact terms f(ell) e_(m-1) of
    the skipped primes ell in (stop, 2 stop), and it is a bound report's
    main term."""
    full = _full_sweep(n, p, truncation)
    fine = _full_sweep(n, p, truncation, WORKING_BITS + p)
    for m, stop in enumerate(stops, 1):
        e, swept = bounds._symmetric_sums(m, p, truncation)
        assert swept == stop
        assert [s.lo for s in e] == [s.lo for s in full[:m + 1]]
        closed = bounds.prime_symmetric_sum(m, p, truncation)
        assert closed.encloses(fine[m])
        skipped = sum(bounds.kodaira_multiple_weight(ell, p)
                      for ell in arith.primes_in(stop + 1, 2 * stop))
        assert closed.hi >= e[m].hi + skipped * e[m - 1].lo
        assert bounds.selmer_growth_bound(p, m, truncation).terms.sym_main == closed


def test_family_density_exceeds_stated_bound(bound_laws):
    r = bound_laws["family density exceeds its stated bound"]
    assert r.passed, r.detail
    fam = bounds.growth_family_density((5,), 1, 7, truncation=200)
    anom = bounds.growth_family_density((5,), 1, 7, anomalous=True, truncation=200)
    assert anom.exact.lo > anom.stated_bound.hi
    # anomalous family is the rarer one
    assert anom.exact.hi < fam.exact.lo


# 40-digit lower endpoints of (exact, stated_bound), recorded from a closed
# form of the sigma factors written independently of density_In
FAMILY_PINS = [
    (((5, 11), 2, 7, False),
     ("1135578017498661936163913767568792284073/5000000000000000000000000000000000000000000000000000",
      "562528227393778631161557655407155779731/2500000000000000000000000000000000000000000000000000")),
    (((17,), 1, 5, True),
     ("7493496688024886739812616419875652113679/100000000000000000000000000000000000000000000000",
      "7219885446102652001513713390970176044407/100000000000000000000000000000000000000000000000")),
]


@pytest.mark.parametrize("args, pins", FAMILY_PINS)
def test_family_density_pinned(args, pins):
    sigma, k, p, anomalous = args
    fam = bounds.growth_family_density(sigma, k, p, anomalous=anomalous, truncation=200)
    assert tuple(Fraction(round_fraction(iv.lo, 40, up=False))
                 for iv in (fam.exact, fam.stated_bound)) == tuple(map(Fraction, pins))


def test_family_density_empty_sigma_matches_euler_n0():
    fam = bounds.growth_family_density((), 3, 7)
    r0 = bounds.euler_divisibility_bound(7, 0)
    assert fam.stated_bound == r0.value


def test_family_density_guards():
    with pytest.raises(ValueError):
        bounds.growth_family_density((5,), 0, 7)
    with pytest.raises(DomainError, match=r"is not a prime >= 5 other than p = 7"):
        bounds.growth_family_density((7,), 1, 7)
    with pytest.raises(DomainError, match=r"is not a prime >= 5 other than p = 7"):
        bounds.growth_family_density((3,), 1, 7)


@pytest.mark.parametrize("path", [
    lambda terms: bounds.zeta_enclosure(7, terms),
    lambda terms: bounds.zeta_reciprocal(7, terms),
    lambda terms: bounds.growth_family_density((5,), 1, 7, truncation=200, zeta_terms=terms),
    lambda terms: bounds.selmer_growth_bound(7, 1, zeta_terms=terms),
    lambda terms: bounds.euler_divisibility_bound(7, 2, zeta_terms=terms),
], ids=["zeta_enclosure", "zeta_reciprocal", "growth_family_density",
        "selmer_growth_bound", "euler_divisibility_bound"])
def test_zeta_terms_checked_on_every_public_path(path):
    """Every public path to the zeta partial sum refuses fewer than 10 terms
    and more than the cap of 2^12, before it sums them."""
    for terms in (9, bounds.MAX_ZETA_TERMS + 1, 10**7):
        with pytest.raises(DomainError, match="zeta_terms"):
            path(terms)


def test_report_json_schema():
    js = bounds.selmer_growth_bound(7, 1).to_json()
    assert set(js) == {"schema_version", "kind", "p", "n", "truncation", "zeta_terms",
                       "lower_bound_rational_lo", "value", "terms", "notes"}
    assert js["schema_version"] == 2
    assert js["lower_bound_rational_lo"] == js["value"]["lo"]
    assert Fraction(js["lower_bound_rational_lo"]) <= bounds.selmer_growth_bound(7, 1).value.lo
    assert set(js["terms"]) == {"zeta_reciprocal", "sym_main", "sym_aux",
                                "ordinary_weight", "anomalous_weight"}
    for name in ("zeta_reciprocal", "sym_main", "sym_aux"):
        assert set(js["terms"][name]) == {"lo", "hi"}


def test_bounds_use_live_census():
    ffcurve.residue_class_counts.cache_clear()
    r = bounds.selmer_growth_bound(5, 1)
    assert r.value.lo > 0
    assert ffcurve.residue_class_counts.cache_info().misses >= 1
