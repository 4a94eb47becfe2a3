"""Counting and classification against literal (x, y)-enumeration oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ecstats import arith, ffcurve, verify
from ecstats.errors import (
    NotPrimeError,
    PrimeTooLargeError,
    PrimeTooSmallError,
    SingularCurveError,
)
from ecstats.ffcurve import PointClass


def test_discriminant_examples():
    assert ffcurve.discriminant_mod(5, 0, 0) == 0
    assert ffcurve.discriminant_mod(5, 2, 2) == 0  # 4*8 + 27*4 = 140
    assert ffcurve.discriminant_mod(7, 1, 1) == 3  # 31 mod 7


def test_count_points_examples():
    assert ffcurve.count_points(5, 0, 1) == 6
    assert ffcurve.count_points(5, 1, 1) == 9
    with pytest.raises(SingularCurveError):
        ffcurve.count_points(7, 0, 0)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_count_points_against_brute_force(p):
    for a in range(p):
        for b in range(p):
            if ffcurve.discriminant_mod(p, a, b) == 0:
                continue
            assert ffcurve.count_points(p, a, b) == verify.smooth_point_count(a, b, p) + 1


def test_classify_examples():
    # count 6 == 1 mod 5 puts (0, 1) in the supersingular (excluded) class
    cls = ffcurve.classify_residue(5, 0, 1)
    assert cls.kind is PointClass.SUPERSINGULAR and cls.point_count == 6
    cls = ffcurve.classify_residue(5, 1, 1)
    assert cls.kind is PointClass.ORDINARY and cls.point_count == 9
    cls = ffcurve.classify_residue(5, 0, 0)
    assert cls.kind is PointClass.SINGULAR and cls.point_count is None


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_census_against_brute_force(p):
    [r] = verify.check_count_oracle((p,))
    assert r.passed, r.detail


def test_census_known_rows():
    c7 = ffcurve.residue_class_counts(7)
    assert c7.ordinary_density == Fraction(32, 49)
    assert c7.anomalous_density == Fraction(4, 49)
    c11 = ffcurve.residue_class_counts(11)
    assert (c11.ordinary, c11.anomalous) == (85, 5)
    c5 = ffcurve.residue_class_counts(5)
    assert (c5.ordinary, c5.anomalous, c5.supersingular, c5.singular) == (13, 3, 4, 5)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41])
def test_partition_invariant(p):
    """The census partitions the p^2 pairs, and its form count satisfies the
    class-number relation at every trace t."""
    counts = ffcurve.residue_class_counts(p)
    assert counts.total == p * p and counts.singular == p
    [r] = verify.check_class_number_relation((p,))
    assert r.passed, r.detail


def test_census_equals_twist_tables():
    """The class-number census against the class codes of the twist-orbit
    tables, at every prime up to 400 and at 1009 and 1021 below the cap."""
    for p in [*arith.primes_in(5, 400), 1009, 1021]:
        counts = ffcurve.residue_class_counts(p)
        tally = np.bincount(ffcurve.class_code_table(p).ravel(), minlength=4)
        assert (tally[PointClass.ORDINARY], tally[PointClass.ANOMALOUS],
                tally[PointClass.SUPERSINGULAR], tally[PointClass.SINGULAR]) == \
            (counts.ordinary, counts.anomalous, counts.supersingular, counts.singular), p


def hurwitz6_by_trace(p):
    """6 H(4p - t^2) for t = 0..isqrt(4p - 1), from one pass over the reduced
    forms (a, b, c): for each a, the (b, t) with 0 <= b <= a, t^2 = 4p + b^2
    mod 4a and c = (4p + b^2 - t^2) / 4a >= a.  A numpy count independent of
    ffcurve._hurwitz6, which takes one scan per t."""
    ts = np.arange(math.isqrt(4 * p - 1) + 1)
    out = np.zeros(len(ts), dtype=np.int64)
    for a in range(1, math.isqrt(4 * p // 3) + 1):
        residues = ts * ts % (4 * a)
        order = np.argsort(residues, kind="stable")
        bs = np.arange(a + 1)
        want = (4 * p + bs * bs) % (4 * a)
        lo, hi = (np.searchsorted(residues[order], want, side) for side in ("left", "right"))
        b = np.repeat(bs, hi - lo)
        t = order[np.arange(len(b)) + np.repeat(hi - np.cumsum(hi - lo), hi - lo)]
        c = (4 * p + b * b - t * t) // (4 * a)
        b, t, c = b[c >= a], t[c >= a], c[c >= a]
        sides = (b == 0).astype(np.int64) + (b == a) + (c == a)
        weight = np.where(sides == 0, 12, np.where(sides == 1, 6, np.where(b == 0, 3, 2)))
        out += np.bincount(t, weights=weight, minlength=len(ts)).astype(np.int64)
    return out


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009])
def test_hurwitz_by_trace_matches_form_count(p):
    assert hurwitz6_by_trace(p).tolist() == [ffcurve._hurwitz6(4 * p - t * t)
                                             for t in range(math.isqrt(4 * p - 1) + 1)]


def test_census_at_the_field_cap():
    """At the largest prime below 2^20 the per-p tables are refused, but the
    census needs none: it partitions the p^2 pairs, its class numbers are
    those of the by-trace count, and those satisfy the class-number relation
    sum_t H(4p - t^2) = 2p.  The relation also holds through verify at 10007."""
    p = 1048573
    with pytest.raises(PrimeTooLargeError):
        ffcurve.class_code_table(p)
    counts = ffcurve.residue_class_counts(p)
    assert counts.total == p * p and counts.singular == p
    h6 = hurwitz6_by_trace(p)
    assert h6[0] + 2 * h6[1:].sum() == 12 * p
    assert (counts.supersingular, counts.anomalous) == ((p - 1) * h6[0] // 12, (p - 1) * h6[1] // 12)
    [r] = verify.check_class_number_relation((10007,))
    assert r.passed, r.detail


@pytest.mark.parametrize("p", [7, 13, 23])
def test_hasse_interval(p):
    [r] = verify.check_hasse(p)
    assert r.passed, r.detail


def test_square_twist_preserves_counts():
    p = 13
    for d in range(1, p):
        c = d * d % p
        for (a, b) in [(1, 1), (2, 3), (0, 2), (5, 0)]:
            twisted = (c * c * a % p, c * c * c * b % p)
            if ffcurve.discriminant_mod(p, a, b) == 0:
                assert ffcurve.discriminant_mod(p, *twisted) == 0
            else:
                assert ffcurve.count_points(p, a, b) == ffcurve.count_points(p, *twisted)


def test_nonzero_twist_preserves_singularity():
    p = 11
    for c in range(1, p):
        for a in range(p):
            for b in range(p):
                twisted_zero = ffcurve.discriminant_mod(p, c * c * a, c ** 3 * b) == 0
                assert twisted_zero == (ffcurve.discriminant_mod(p, a, b) == 0)


def test_validation_errors():
    with pytest.raises(NotPrimeError):
        ffcurve.count_points(9, 1, 1)
    with pytest.raises(PrimeTooSmallError):
        ffcurve.count_points(2, 1, 1)
    with pytest.raises(PrimeTooSmallError):
        ffcurve.residue_class_counts(3)
    with pytest.raises(PrimeTooLargeError):
        ffcurve.count_points(1048583, 1, 1)
    for table in (ffcurve.class_code_table, ffcurve.point_count_table):
        with pytest.raises(PrimeTooLargeError):
            table(ffcurve.MAX_TABLE_PRIME + 7)  # 1031, the next prime


# both residues of p mod 4; at p = 5, t == 1 (mod p) includes t = -4
@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 43, 61])
def test_tables_match_class_codes(p):
    codes = ffcurve.class_code_table(p)
    counts = ffcurve.residue_class_counts(p)
    assert codes.shape == (p, p) and codes.dtype == np.uint8
    assert np.count_nonzero(codes == PointClass.ORDINARY) == counts.ordinary
    assert np.count_nonzero(codes == PointClass.ANOMALOUS) == counts.anomalous
    assert np.count_nonzero(codes == PointClass.SINGULAR) == counts.singular
    pc = ffcurve.point_count_table(p)
    assert pc.shape == (p, p)
    tally = {kind: 0 for kind in PointClass}
    for a in range(p):
        for b in range(p):
            cls = ffcurve.classify_residue(p, a, b)
            tally[cls.kind] += 1
            want = -1 if cls.point_count is None else cls.point_count
            assert pc[a, b] == want
            assert codes[a, b] == cls.kind
    assert (counts.ordinary, counts.anomalous, counts.supersingular, counts.singular) == \
        (tally[PointClass.ORDINARY], tally[PointClass.ANOMALOUS],
         tally[PointClass.SUPERSINGULAR], tally[PointClass.SINGULAR])


def test_tables_are_read_only():
    """The tables are lru-cached and shared, so writing into one is refused."""
    for table in (ffcurve.class_code_table(7), ffcurve.point_count_table(7)):
        with pytest.raises(ValueError):
            table[1, 1] = 0
    with pytest.raises(ValueError):
        ffcurve.chi_table(7)[1] = 0


@pytest.mark.parametrize("ell", [7, 13])
@pytest.mark.parametrize("to_singular", [False, True])
def test_residue_oracles_read_the_singular_pairs(ell, to_singular, monkeypatch):
    """The singular-pair list wrong at ell, a singular nonzero pair dropped
    or a smooth pair added: both residue oracles fail at ell and pass
    elsewhere, so both read the list (tests/test_verify.py checks the list
    against the literal double loop)."""
    singular_pairs = verify._singular_grid
    a0, b0 = next((a, b) for a in range(1, ell) for b in range(1, ell)
                  if ((a, b) in singular_pairs(ell)) != to_singular)

    def wrong(q):
        pairs = singular_pairs(q)
        if q != ell:
            return pairs
        return sorted(pairs + [(a0, b0)]) if to_singular else [ab for ab in pairs if ab != (a0, b0)]

    monkeypatch.setattr(verify, "_singular_grid", wrong)
    for results in (verify.check_singular_counts(30), verify.check_split_dual_oracle(30)):
        assert [r.passed for r in results] == [q != ell for q in arith.primes_in(5, 30)]


def _numpy_count(p, a, b):
    """#E(F_p) as p + 1 + sum_x chi(x^3 + a x + b), chi built here from the squares."""
    chi, xs = np.full(p, -1, dtype=np.int64), np.arange(p, dtype=np.int64)
    chi[xs * xs % p] = 1
    chi[0] = 0
    return p + 1 + int(chi[(xs * xs % p * xs + a * xs + b) % p].sum())


def test_count_points_matches_a_numpy_character_sum():
    """The pure-Python count equals a numpy character sum on every smooth
    pair at p <= 43, 200 drawn pairs at p = 1009 and one pair near 2^20."""
    rng = random.Random(1009)
    pairs = [(p, a, b) for p in arith.primes_in(3, 43) for a in range(p) for b in range(p)]
    pairs += [(1009, rng.randrange(1009), rng.randrange(1009)) for _ in range(200)]
    pairs.append((1048573, 123456, 654321))
    smooth = [(p, a, b) for p, a, b in pairs if ffcurve.discriminant_mod(p, a, b)]
    assert len(smooth) > len(pairs) * 0.9
    for p, a, b in smooth:
        assert ffcurve.count_points(p, a, b) == _numpy_count(p, a, b), (p, a, b)


def test_chi_table_is_eulers_criterion():
    """chi_table(p)[t] == t^((p-1)/2) mod p, read as -1, 0 or 1, at every
    prime p <= 1009; the table is a read-only int8 array."""
    for p in arith.primes_in(3, 1009):
        chi = ffcurve.chi_table(p)
        assert chi.dtype == np.int8 and not chi.flags.writeable and len(chi) == p
        euler = [pow(t, (p - 1) // 2, p) for t in range(p)]
        assert chi.tolist() == [e - p if e == p - 1 else e for e in euler], p
