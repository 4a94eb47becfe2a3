import math

import pytest

from ecstats import ffcurve, localdata, verify
from ecstats.arith import factorize, is_prime
from ecstats.errors import DomainError
from ecstats.localdata import ReductionKind


def test_naive_height():
    assert localdata.naive_height(0, 0) == 0
    assert localdata.naive_height(1, 1) == 27
    assert localdata.naive_height(-2, 3) == 243


def test_valuation():
    assert localdata.valuation(140, 5) == 1
    assert localdata.valuation(0, 7) == math.inf
    assert localdata.valuation(9, 3) == 2
    assert localdata.valuation(-40, 2) == 3
    # ell = 1 and -1 divide every n: refused, not an endless division
    for n, ell in ((5, 1), (5, -1), (5, 0), (0, 1), (-7, -2)):
        with pytest.raises(DomainError):
            localdata.valuation(n, ell)
    with pytest.raises(DomainError):
        localdata.is_minimal_at(16, 64, -1)


def test_is_minimal_at():
    assert localdata.is_minimal_at(16, 64, 2) is False  # v2 = (4, 6)
    assert localdata.is_minimal_at(1, 0, 5) is True
    assert localdata.is_minimal_at(0, 0, 5) is False
    assert localdata.is_minimal_at(16, 32, 2) is True  # v2(b) = 5 < 6


def test_is_globally_minimal():
    assert localdata.is_globally_minimal(1, 1) is True
    assert localdata.is_globally_minimal(2**4, 2**6) is False
    assert localdata.is_globally_minimal(3**4, 2**6) is True
    assert localdata.is_globally_minimal(0, 2**6) is False  # v(0) = inf
    assert localdata.is_globally_minimal(0, 2**6 - 1) is True
    with pytest.raises(DomainError, match=r"is singular"):
        localdata.is_globally_minimal(0, 0)


def test_is_globally_minimal_sieves_up_to_the_gcd():
    """Non-minimality at ell needs ell^4 | gcd(a, b), so a huge coprime pair
    needs no sieve, a pair non-minimal only at ell = 1_000_003 is found, and a
    search past 2^24 is refused in one line."""
    assert localdata.is_globally_minimal(10**400 + 1, 7) is True
    ell = 1_000_003
    assert is_prime(ell)
    assert localdata.is_globally_minimal(ell**4, ell**6) is False
    assert localdata.is_globally_minimal(ell**4, 2 * ell**5) is True
    q = (1 << 24) + 43
    with pytest.raises(DomainError, match="past 2\\^24"):
        localdata.is_globally_minimal(q**4, q**6)


def test_kodaira_examples():
    kt = localdata.kodaira_type(2, 2, 5)
    assert kt.kind is ReductionKind.MULTIPLICATIVE and kt.n == 1
    assert localdata.kodaira_type(1, 1, 5).kind is ReductionKind.GOOD
    assert localdata.kodaira_type(5, 5, 5).kind is ReductionKind.ADDITIVE
    assert str(kt) == "I1"


def test_kodaira_errors():
    with pytest.raises(DomainError, match=r"below the supported minimum"):
        localdata.kodaira_type(1, 1, 3)
    with pytest.raises(DomainError, match=r"is singular"):
        localdata.kodaira_type(-3, 2, 5)
    with pytest.raises(DomainError, match=r"is not minimal at 5"):
        localdata.kodaira_type(5**4, 5**6, 5)


def test_kodaira_lift_invariance():
    # the class is a function of the residue mod ell^(v+1)
    ell = 5
    for (a, b) in [(2, 2), (1, 1), (5, 5), (7, 13), (10, 15)]:
        if localdata.discriminant(a, b) == 0:
            continue
        base = localdata.kodaira_type(a, b, ell)
        v = localdata.valuation(localdata.discriminant(a, b), ell)
        mod = ell ** (int(v) + 1)
        for s, t in [(1, 0), (0, 1), (2, 3), (-1, 4)]:
            a2, b2 = a + mod * s, b + mod * t
            if localdata.discriminant(a2, b2) == 0 or not localdata.is_minimal_at(a2, b2, ell):
                continue
            assert localdata.kodaira_type(a2, b2, ell) == localdata.KodairaType(base.kind, ell, base.n)


def test_split_example_and_error():
    # e = 1, 3e = 3 is a nonresidue mod 5 -> nonsplit
    assert localdata.is_split_multiplicative(2, 2, 5) is False
    assert verify.smooth_point_count(2, 2, 5) == 5 + 1  # ell - a_ell with a_ell = -1
    with pytest.raises(DomainError, match=r"not I_n with n >= 1"):
        localdata.is_split_multiplicative(1, 1, 5)  # good reduction at 5


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_split_against_smooth_count(ell):
    for a in range(ell):
        for b in range(ell):
            if (a, b) == (0, 0) or ffcurve.discriminant_mod(ell, a, b) != 0:
                continue
            want_split = verify.smooth_point_count(a, b, ell) == ell - 1
            assert localdata.is_split_multiplicative(a, b, ell) == want_split


def test_tamagawa_p_part():
    assert localdata.tamagawa_p_part(2, 2, 5, 7) == 1  # nonsplit I_1
    assert localdata.tamagawa_p_part(1, 1, 5, 7) == 1  # good at 5
    # (163, 291): delta = 5^7 * 251, split at 5
    assert localdata.valuation(localdata.discriminant(163, 291), 5) == 7
    assert localdata.is_split_multiplicative(163, 291, 5) is True
    assert localdata.tamagawa_p_part(163, 291, 5, 7) == 7
    assert localdata.tamagawa_p_part(163, 291, 5, 11) == 1
    with pytest.raises(DomainError, match=r"below the supported minimum"):
        localdata.tamagawa_p_part(2, 2, 5, 3)
    with pytest.raises(ValueError):
        localdata.tamagawa_p_part(2, 2, 5, 5)


def test_split_deep_example_found_by_search():
    # search a fresh witness: v_5(delta) = 7 and split at 5, so that the
    # Tamagawa number at 5 is exactly 7 and its 7-part is 7
    found = None
    for a in range(1, 200):
        for b in range(1, 600):
            d = localdata.discriminant(a, b)
            if d % 5**7 == 0 and d % 5**8 != 0 and (a % 5, b % 5) != (0, 0):
                if localdata.is_split_multiplicative(a, b, 5):
                    found = (a, b)
                    break
        if found:
            break
    assert found is not None
    assert localdata.tamagawa_p_part(*found, 5, 7) == 7
    assert verify.smooth_point_count(found[0] % 5, found[1] % 5, 5) == 4


def test_tamagawa_anomaly_count_example():
    # delta(1,1) = 31: multiplicative I_1 at 31, 7-part 1; #E(F_7) = 5
    res = localdata.tamagawa_anomaly_count(1, 1, 7)
    assert (res.tamagawa_primes, res.anomalous_flag, res.total) == (0, 0, 0)
    assert ffcurve.count_points(7, 1, 1) == 5


def test_tamagawa_anomaly_count_constructed_two():
    # (163, 291): delta = 5^7 * 251, split I_7 at 5 -> 7 | c_5; check
    # whether 7 is anomalous for this pair and assert the total matches
    d = localdata.discriminant(163, 291)
    assert d == 5**7 * 251
    assert d % 2 and d % 3 and d % 7
    anomalous = ffcurve.count_points(7, 163 % 7, 291 % 7) % 7 == 0
    res = localdata.tamagawa_anomaly_count(163, 291, 7)
    assert res.tamagawa_primes == 1
    assert res.total == 1 + (1 if anomalous else 0)
    assert res.anomalous_flag == (1 if anomalous else 0)


def test_tamagawa_anomaly_count_errors():
    with pytest.raises(DomainError, match=r"divides the discriminant"):
        localdata.tamagawa_anomaly_count(1, 1, 31)
    with pytest.raises(DomainError, match=r"bad reduction at 2 or 3"):
        localdata.tamagawa_anomaly_count(1, 2, 5)  # delta = 112
    with pytest.raises(DomainError, match=r"is singular"):
        localdata.tamagawa_anomaly_count(0, 0, 5)
    with pytest.raises(DomainError, match=r"is not minimal at 5"):
        localdata.tamagawa_anomaly_count(5**4 * 163, 5**6 * 291, 7)


def test_growth_invariants_in_one_record():
    res = localdata.tamagawa_anomaly_count(163, 291, 7)
    assert (res.tamagawa_primes, res.anomalous_flag, res.total, res.euler_valuation) == (1, 0, 1, 1)
    assert localdata.euler_term_valuation(163, 291, 7) == res.euler_valuation


def test_euler_term_valuation():
    assert localdata.euler_term_valuation(1, 1, 7) == 0
    d = localdata.discriminant(163, 291)
    v = localdata.euler_term_valuation(163, 291, 7)
    anomalous = ffcurve.count_points(7, 163 % 7, 291 % 7) % 7 == 0
    assert v == 1 + (2 if anomalous else 0)
    assert d % 7 != 0


def test_kodaira_types_example():
    # (163, 291): delta = 5^7 * 251; (1, 2): delta = 2^4 * 7 skips the prime 2
    assert localdata.kodaira_types(163, 291) == (
        (5, localdata.KodairaType(ReductionKind.MULTIPLICATIVE, 5, 7)),
        (251, localdata.KodairaType(ReductionKind.MULTIPLICATIVE, 251, 1)))
    assert [ell for ell, _ in localdata.kodaira_types(1, 2)] == [7]
    with pytest.raises(DomainError, match=r"is singular"):
        localdata.kodaira_types(-3, 2)
    with pytest.raises(DomainError, match=r"is not minimal at 5"):
        localdata.kodaira_types(5**4, 5**6)


def test_growth_record_agrees_with_per_prime_functions():
    """The one-pass record gives the same local data as the public per-prime
    functions, on every minimal pair in a box that is good at 2, 3 and 7."""
    p = 7
    checked = 0
    for a in range(-20, 21):
        for b in range(-40, 41):
            d = localdata.discriminant(a, b)
            if d == 0 or d % 2 == 0 or d % 3 == 0 or d % p == 0:
                continue
            if not localdata.is_globally_minimal(a, b):
                continue
            res = localdata.tamagawa_anomaly_count(a, b, p)
            ells = sorted(ell for ell in factorize(d) if ell >= 5)
            assert res.kodaira == tuple((ell, localdata.kodaira_type(a, b, ell)) for ell in ells)
            parts = [int(localdata.valuation(localdata.tamagawa_p_part(a, b, ell, p), p))
                     for ell in ells]
            assert res.euler_valuation == sum(parts) + 2 * res.anomalous_flag
            assert res.kind is ffcurve.classify_residue(p, a, b).kind
            checked += 1
    assert checked > 500


def test_twist_coherence():
    for u in (2, 3, 5, 6):
        a, b = u**4 * 1, u**6 * 1
        for p in (2, 3, 5):
            if u % p == 0:
                assert not localdata.is_minimal_at(a, b, p)


def test_height_window_equivalence():
    from ecstats.survey import HeightWindow
    for x in (0, 27, 100, 10**4):
        win = HeightWindow.from_height(x)
        for a in range(-win.a_max - 2, win.a_max + 3):
            for b in range(-win.b_max - 2, win.b_max + 3):
                inside = localdata.naive_height(a, b) <= x
                boxed = abs(a) <= win.a_max and abs(b) <= win.b_max
                assert inside == boxed
