from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ecstats.errors import DomainError
from ecstats.intervals import QInterval, check_printable, fraction_to_decimal, round_fraction


def test_point_and_validation():
    iv = QInterval.point(Fraction(1, 3))
    assert iv.lo == iv.hi == Fraction(1, 3)
    with pytest.raises(ValueError):
        QInterval(Fraction(1), Fraction(0))


def test_arithmetic_exact():
    a = QInterval(Fraction(1, 4), Fraction(1, 2))
    b = QInterval(Fraction(2), Fraction(3))
    assert (a + b) == QInterval(Fraction(9, 4), Fraction(7, 2))
    assert (a * b) == QInterval(Fraction(1, 2), Fraction(3, 2))
    assert (a * 2) == QInterval(Fraction(1, 2), Fraction(1))


def test_mul_with_negative_endpoints():
    """An interval encloses a nonnegative real: a negative endpoint is refused."""
    for lo, hi in ((-1, 2), (-3, Fraction(-1, 2)), (Fraction(-1, 10**30), 0)):
        with pytest.raises(ValueError):
            QInterval(Fraction(lo), Fraction(hi))
    with pytest.raises(ValueError):
        QInterval.point(-1)
    with pytest.raises(ValueError):
        QInterval(Fraction(1), Fraction(2)) * -1


def _four_product_mul(a: QInterval, b: QInterval) -> QInterval:
    """The general signed interval product: min and max of the four endpoint products."""
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return QInterval(min(products), max(products))


_NONNEGATIVE = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)
_INTERVALS = st.one_of(
    st.tuples(_NONNEGATIVE, _NONNEGATIVE).map(lambda t: QInterval(min(t), max(t))),
    _NONNEGATIVE.map(QInterval.point),
    _NONNEGATIVE.map(lambda hi: QInterval(0, hi)),
)


@given(_INTERVALS, _INTERVALS)
@example(QInterval(0, 0), QInterval(2, 3))
@example(QInterval(0, 1), QInterval(0, 1))
@example(QInterval.point(Fraction(2, 3)), QInterval(0, Fraction(1, 2)))
def test_mul_matches_four_product_oracle(a, b):
    assert a * b == _four_product_mul(a, b) == b * a


def test_reciprocal_and_division():
    a = QInterval(Fraction(2), Fraction(4))
    assert a.reciprocal() == QInterval(Fraction(1, 4), Fraction(1, 2))
    for zero in (QInterval(Fraction(0), Fraction(1)), QInterval.point(0)):
        with pytest.raises(ZeroDivisionError):
            zero.reciprocal()


def test_contains_encloses_width():
    a = QInterval(Fraction(0), Fraction(1))
    assert a.contains(Fraction(1, 2)) and a.contains(0) and a.contains(1)
    assert not a.contains(Fraction(3, 2))
    assert a.encloses(QInterval(Fraction(1, 4), Fraction(3, 4)))
    assert not a.encloses(QInterval(Fraction(1, 4), Fraction(5, 4)))
    assert a.width == 1 and a.midpoint == Fraction(1, 2)


@pytest.mark.parametrize("q", [
    Fraction(1, 3), Fraction(-22, 7), Fraction(10**40 + 1, 3),
    Fraction(1, 10**30), Fraction(999999, 1000000), Fraction(0),
])
def test_round_fraction_is_directed(q):
    down = round_fraction(q, 10, up=False)
    up = round_fraction(q, 10, up=True)
    assert down <= q <= up
    if q != 0:
        assert up - down <= abs(q) * Fraction(1, 10**8)


@pytest.mark.parametrize("q", [Fraction(7**6000 + 1, 3**9100), Fraction(3**9100, 7**6000 + 1)])
def test_round_fraction_beyond_str_digit_limit(q):
    """Numerator and denominator exceed Python's 4,300-digit str(int) limit."""
    down = round_fraction(q, 40, up=False)
    up = round_fraction(q, 40, up=True)
    assert down < q < up
    # one unit in the 40th significant digit, so the exponent of q is exact
    assert q / 10**40 < up - down <= q / 10**39
    assert str(down) and str(up)


def test_check_printable_matches_the_str_digit_limit():
    """4300 digits print; 4301 raise DomainError where str raises ValueError."""
    for q in (Fraction(1, 10**4299), Fraction(-(10**4300 - 1), 3)):
        assert check_printable(q) is q and str(q)
    for q in (Fraction(1, 10**4300), Fraction(-(10**4300), 7)):
        with pytest.raises(DomainError, match="Exceeds the limit"):
            check_printable(q)
        with pytest.raises(ValueError):
            str(q)
    with pytest.raises(DomainError):
        round_fraction(Fraction(1, 3**9100), 40, up=True)


def test_outward_rounding_preserves_enclosure():
    iv = QInterval(Fraction(1, 3), Fraction(2, 3))
    rounded = iv.outward_rounded(6)
    assert rounded.encloses(iv)


def test_fraction_to_decimal():
    assert fraction_to_decimal(Fraction(1, 8), 4) == "0.1250"
    assert fraction_to_decimal(Fraction(2, 3), 6) == "0.666667"
    assert fraction_to_decimal(Fraction(-1, 3), 3) == "-0.333"
    assert fraction_to_decimal(Fraction(32, 49)) == "0.653061224489796"
