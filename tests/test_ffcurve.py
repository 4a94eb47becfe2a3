"""Counting and classification against literal (x, y)-enumeration oracles."""

import math
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
def test_residue_oracles_run_discriminant_on_every_pair(ell, to_singular, monkeypatch):
    """discriminant_mod wrong on one residue pair at ell, a singular nonzero
    pair read as smooth or a smooth pair read as singular: both residue
    oracles fail at ell and pass elsewhere, so their array evaluation still
    runs the library function on every pair.  No table that reads
    discriminant_mod is built, so none is cached from the wrong function."""
    discriminant, built = ffcurve.discriminant_mod, ffcurve.point_count_table.cache_info().misses
    a0, b0 = next((a, b) for a in range(1, ell) for b in range(1, ell)
                  if (discriminant(ell, a, b) == 0) != to_singular)

    def wrong(p, a, b):
        d = discriminant(p, a, b)
        return np.where((p == ell) & (a % p == a0) & (b % p == b0), int(not to_singular), d)

    monkeypatch.setattr(ffcurve, "discriminant_mod", wrong)
    for results in (verify.check_singular_counts(30), verify.check_split_dual_oracle(30)):
        assert [r.passed for r in results] == [q != ell for q in arith.primes_in(5, 30)]
    assert ffcurve.point_count_table.cache_info().misses == built
