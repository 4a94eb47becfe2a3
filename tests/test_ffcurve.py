"""Counting and classification against literal (x, y)-enumeration oracles."""

from fractions import Fraction

import pytest

from ecstats import ffcurve, verify
from ecstats.errors import (
    NotPrimeError,
    PrimeTooLargeError,
    PrimeTooSmallError,
    SingularCurveError,
)
from ecstats.ffcurve import PointClass

CODES = {
    PointClass.SINGULAR: ffcurve._CODE_SINGULAR,
    PointClass.ORDINARY: ffcurve._CODE_ORDINARY,
    PointClass.ANOMALOUS: ffcurve._CODE_ANOMALOUS,
    PointClass.SUPERSINGULAR: ffcurve._CODE_SUPERSINGULAR,
}


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
    [r] = verify.check_partition((p,))
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
    assert len(codes) == p * p
    assert codes.count(ffcurve._CODE_ORDINARY) == counts.ordinary
    assert codes.count(ffcurve._CODE_ANOMALOUS) == counts.anomalous
    assert codes.count(ffcurve._CODE_SINGULAR) == counts.singular
    pc = ffcurve.point_count_table(p)
    tally = {kind: 0 for kind in PointClass}
    for a in range(p):
        for b in range(p):
            cls = ffcurve.classify_residue(p, a, b)
            tally[cls.kind] += 1
            want = -1 if cls.point_count is None else cls.point_count
            assert pc[a * p + b] == want
            assert codes[a * p + b] == CODES[cls.kind]
    assert (counts.ordinary, counts.anomalous, counts.supersingular, counts.singular) == \
        (tally[PointClass.ORDINARY], tally[PointClass.ANOMALOUS],
         tally[PointClass.SUPERSINGULAR], tally[PointClass.SINGULAR])
