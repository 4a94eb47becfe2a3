"""The residue oracles of `verify` against their literal definitions."""

import math

import pytest

from ecstats import arith, ffcurve, verify
from ecstats.ffcurve import PointClass, ResidueClass


@pytest.mark.parametrize("ell", arith.primes_in(5, 61))
def test_singular_pairs_match_the_double_loop(ell):
    assert verify._singular_grid(ell) == [(a, b) for a in range(ell) for b in range(ell)
                                          if (4 * a**3 + 27 * b**2) % ell == 0]


@pytest.mark.parametrize("p", [13, 101])
def test_hasse_check_is_exact(p, monkeypatch):
    """A count with |p + 1 - N| = floor(2 sqrt(p)) passes and one past it
    fails, on either side of p + 1."""
    classify = ffcurve.classify_residue
    edge = math.isqrt(4 * p)
    for trace, passes in ((edge, True), (-edge, True), (edge + 1, False), (-edge - 1, False)):
        def one_off(q, a, b, trace=trace):
            got = classify(q, a, b)
            return ResidueClass(PointClass.ORDINARY, q + 1 - trace) if (a, b) == (1, 1) else got
        monkeypatch.setattr(ffcurve, "classify_residue", one_off)
        [r] = verify.check_hasse(p)
        assert r.passed == passes, (trace, r.detail)


def test_reference_tables_check_only_the_primes_in_range():
    """check_reference_tables(pmin, pmax) skips the reference primes outside
    [pmin, pmax] and checks each one inside it."""
    results = verify.check_reference_tables(11, 17)
    assert [r.name for r in results] == [f"census p={p} matches reference" for p in (11, 13, 17)]
    assert all(r.passed for r in results)
