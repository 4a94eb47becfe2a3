import math
from decimal import Decimal
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


def _integer_rounding(q: Fraction, significant: int, up: bool) -> Fraction:
    """q rounded to `significant` digits toward +inf (up) or -inf (down) in
    integers alone: the exponent e = floor(log10 |q|) from bit lengths, made
    exact by integer corrections, then the floor or ceiling of q * 10^shift."""
    if q == 0:
        return Fraction(0)
    a, den = abs(q.numerator), q.denominator
    e = math.floor((a.bit_length() - den.bit_length()) * math.log10(2))
    while 10**max(e, 0) * den > a * 10**max(-e, 0):
        e -= 1
    while 10 ** max(e + 1, 0) * den <= a * 10 ** max(-(e + 1), 0):
        e += 1
    shift = significant - 1 - e
    scaled = q * Fraction(10) ** shift
    units = math.ceil(scaled) if up else math.floor(scaled)
    return Fraction(units) / Fraction(10) ** shift


# (m, k, r) stands for the positive integer m * 7^k + r, from one digit to
# past 5,000 digits, beyond the 4,300-digit str(int) limit; hypothesis draws
# and reports the short triple, since repr of the integer would raise
_WIDE = st.tuples(st.integers(0, 10**40), st.integers(0, 6000), st.integers(1, 10**40))


def _wide(m: int, k: int, r: int) -> int:
    return m * 7**k + r


@given(st.sampled_from((-1, 0, 1)), _WIDE, _WIDE, st.sampled_from((1, 10, 40)), st.booleans())
@example(1, (1, 6000, 1), (3**40, 5000, 0), 40, False)
@example(-1, (3**40, 5000, 0), (1, 6000, 1), 40, True)
@example(1, (0, 0, 99999), (0, 0, 10000), 1, True)
@example(-1, (0, 0, 1), (0, 0, 3), 40, False)
def test_round_fraction_matches_integer_oracle(sign, num, den, significant, up):
    q = Fraction(sign * _wide(*num), _wide(*den))
    rounded = round_fraction(q, significant, up)
    assert isinstance(rounded, Decimal) and len(rounded.as_tuple().digits) <= significant
    assert Fraction(rounded) == _integer_rounding(q, significant, up)
    assert Fraction(str(rounded)) == Fraction(rounded)


@pytest.mark.parametrize("q", [
    Fraction(1, 3), Fraction(-22, 7), Fraction(10**40 + 1, 3),
    Fraction(1, 10**30), Fraction(999999, 1000000), Fraction(0),
])
def test_round_fraction_is_directed(q):
    down = Fraction(round_fraction(q, 10, up=False))
    up = Fraction(round_fraction(q, 10, up=True))
    assert down <= q <= up
    if q != 0:
        assert up - down <= abs(q) * Fraction(1, 10**8)


@pytest.mark.parametrize("q", [Fraction(7**6000 + 1, 3**9100), Fraction(3**9100, 7**6000 + 1)])
def test_round_fraction_beyond_str_digit_limit(q):
    """Numerator and denominator exceed Python's 4,300-digit str(int) limit."""
    down = Fraction(round_fraction(q, 40, up=False))
    up = Fraction(round_fraction(q, 40, up=True))
    assert down < q < up
    # one unit in the 40th significant digit, so the exponent of q is exact
    assert q / 10**40 < up - down <= q / 10**39
    assert str(round_fraction(q, 40, up=False)) and str(round_fraction(q, 40, up=True))


def test_check_printable_matches_the_str_digit_limit():
    """4300 digits print; 4301 raise DomainError where str raises ValueError.
    A rounded endpoint prints past that limit."""
    for q in (Fraction(1, 10**4299), Fraction(-(10**4300 - 1), 3)):
        assert check_printable(q) is q and str(q)
    for q in (Fraction(1, 10**4300), Fraction(-(10**4300), 7)):
        with pytest.raises(DomainError, match="Exceeds the limit"):
            check_printable(q)
        with pytest.raises(ValueError):
            str(q)
    q = Fraction(1, 3**9100)
    assert Fraction(str(round_fraction(q, 40, up=True))) == _integer_rounding(q, 40, up=True)


@given(st.tuples(_WIDE, _WIDE), st.tuples(_WIDE, _WIDE), st.booleans())
@example(((0, 0, 1), (0, 0, 3)), ((0, 0, 1), (0, 0, 3)), False)
@example(((0, 0, 1), (3**40, 5000, 0)), ((3**40, 5000, 0), (0, 0, 7)), False)
@example(((0, 0, 1), (3**40, 5000, 0)), ((0, 0, 1), (0, 0, 1)), True)
def test_outward_rounding_preserves_enclosure(lo, width, zero_lo):
    """The serialized endpoints are 40-digit decimal strings, lo rounded down
    and hi up, so they enclose the interval and are within 1e-39 of it,
    relative, and an endpoint reads 0 only where it is 0."""
    lo = 0 if zero_lo else Fraction(_wide(*lo[0]), _wide(*lo[1]))
    iv = QInterval(lo, lo + Fraction(_wide(*width[0]), _wide(*width[1])))
    js = iv.to_json()
    assert set(js) == {"lo", "hi"}
    lo, hi = Fraction(js["lo"]), Fraction(js["hi"])
    assert QInterval(lo, hi).encloses(iv)
    assert iv.lo - lo <= iv.lo / 10**39 and hi - iv.hi <= iv.hi / 10**39
    assert (lo == 0) == (iv.lo == 0) and (hi == 0) == (iv.hi == 0)


def test_fraction_to_decimal():
    assert fraction_to_decimal(Fraction(1, 8), 4) == "0.1250"
    assert fraction_to_decimal(Fraction(2, 3), 6) == "0.666667"
    assert fraction_to_decimal(Fraction(-1, 3), 3) == "-0.333"
    assert fraction_to_decimal(Fraction(32, 49)) == "0.653061224489796"
