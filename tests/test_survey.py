import ast
import functools
import hashlib
import io
import itertools
import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecstats import arith, density, ffcurve, localdata, survey, verify
from ecstats.errors import DomainError, NotPrimeError, PrimeTooSmallError
from ecstats.survey import HeightWindow


def test_count_pairs_examples():
    assert HeightWindow.from_height(10**4).pair_count == 1053
    assert HeightWindow.from_height(27).pair_count == 9
    assert HeightWindow.from_height(0).pair_count == 1
    # the cube root bound near 2^110 is exact, not stepped to from a float
    x = 10**100
    a, b = arith.integer_nth_root(x // 4, 3), math.isqrt(x // 27)
    assert 4 * a**3 <= x < 4 * (a + 1) ** 3
    assert HeightWindow.from_height(x).pair_count == (2 * a + 1) * (2 * b + 1)
    with pytest.raises(ValueError):
        HeightWindow.from_height(-1)


def test_window_examples():
    win = HeightWindow.from_height(10**4)
    assert (win.a_max, win.b_max) == (13, 19)
    win8 = HeightWindow.from_height(10**8)
    assert (win8.a_max, win8.b_max) == (292, 1924)
    assert win8.pair_count == 2251665
    for x in (10**4, 10**8, 10**12, 10**15):
        w = HeightWindow.from_height(x)
        witnesses = [ell for ell in arith.primes_in(2, 2000)
                     if ell**4 <= w.a_max or ell**6 <= w.b_max]
        assert w.minimality_primes() == tuple((ell**4, ell**6) for ell in witnesses)
    # the sieve stops at the 4th and 6th roots, not at b_max ~ 1.9e10
    huge = HeightWindow.from_height(10**22).minimality_primes()
    assert huge == tuple((ell**4, ell**6) for ell in arith.primes_in(2, 60))


def test_enumerate_yields_each_pair_once():
    recs = list(survey.enumerate_curves(10**4))
    assert len(recs) == 1053
    assert len({(r.a, r.b) for r in recs}) == 1053
    singular = {(r.a, r.b) for r in recs if not r.nonsingular}
    assert {(0, 0), (-3, 2), (-3, -2)} <= singular
    assert singular == {(0, 0), (-3, 2), (-3, -2), (-12, 16), (-12, -16)}


def test_enumerate_against_naive_oracle():
    """Independent double loop recomputing every flag from definitions."""
    x = 10**4
    win = HeightWindow.from_height(x)
    naive = {}
    for a in range(-win.a_max, win.a_max + 1):
        for b in range(-win.b_max, win.b_max + 1):
            delta = 4 * a**3 + 27 * b**2
            minimal = (a, b) != (0, 0) and not any(
                a % ell**4 == 0 and b % ell**6 == 0 for ell in (2, 3, 5, 7))
            naive[(a, b)] = (delta, minimal)
    for rec in survey.enumerate_curves(x):
        delta, minimal = naive[(rec.a, rec.b)]
        assert rec.delta == delta
        assert rec.minimal == minimal
        assert rec.height == max(4 * abs(rec.a) ** 3, 27 * rec.b**2)


def test_minimal_density_summary_small():
    s = survey.empirical_minimal_density(survey._growth_census(7, 10**6))
    assert s.counts["pairs"] == HeightWindow.from_height(10**6).pair_count
    assert s.counts["singular"] + s.counts["nonminimal"] + s.counts["curves"] \
        == s.counts["pairs"]
    assert abs(s.empirical - (s.theoretical.lo + s.theoretical.hi) / 2) < Fraction(5, 1000)
    # singular locus is thin
    assert Fraction(s.counts["singular"], s.counts["pairs"]) < Fraction(1, 100)


def test_kodaira_summary_matches_slow_records():
    x, ell, n = 10**4, 5, 1
    s = survey.empirical_kodaira_density(survey._growth_census(7, x, (ell,)), ell, n)
    slow_hits = 0
    slow_curves = 0
    for rec in survey.enumerate_curves(x, p=7):
        if not (rec.minimal and rec.nonsingular):
            continue
        slow_curves += 1
        for q, kt in rec.kodaira:
            if q == ell and kt.is_multiplicative and kt.n == n:
                slow_hits += 1
    assert s.counts["curves"] == slow_curves
    assert s.counts["type_In_at_ell"] == slow_hits


def _certifying_prime(a, b, p):
    """The q that certifies trivial p-torsion by count_points among the
    first five good q, or None, and the last q the certificate needs: that
    q, or the fifth good one."""
    seen, delta = 0, localdata.discriminant(a, b)
    for q in arith.primes_in(5, 1000):
        if q == p or delta % q == 0:
            continue
        if ffcurve.count_points(q, a % q, b % q) % p:
            return q, q
        seen += 1
        if seen == survey.TORSION_CERT_PRIMES:
            return None, q


def _oracle_certified(a, b, p):
    return _certifying_prime(a, b, p)[0] is not None


def _slow_census(p, x):
    """The buckets, the strict, Kodaira-only and Euler histograms and the
    v_ell(delta) histograms at ell = 5 and 7 of the census at p, rebuilt
    from the slow classify path with an independent torsion certificate."""
    buckets = dict.fromkeys(survey._BUCKETS, 0)
    strict, kodaira, euler = Counter(), Counter(), Counter()
    valuations = {5: Counter(), 7: Counter()}
    for rec in survey.enumerate_curves(x, p=p):
        if not rec.nonsingular:
            buckets["singular"] += 1
            continue
        if not rec.minimal:
            buckets["nonminimal"] += 1
            continue
        buckets["curves"] += 1
        types = dict(rec.kodaira)
        for ell, hist in valuations.items():
            kt = types.get(ell)
            if kt is None or kt.is_multiplicative:
                hist[kt.n if kt else 0] += 1
        if rec.bad_small:
            buckets["bad_at_2_or_3"] += 1
        elif rec.ordinary is None:
            buckets["bad_at_p"] += 1
        elif not rec.ordinary:
            buckets["supersingular_at_p"] += 1
        else:
            if p in (5, 7) and not _oracle_certified(rec.a, rec.b, p):
                buckets["torsion_uncertified"] += 1
                continue
            buckets["classified"] += 1
            strict[rec.growth_count] += 1
            kodaira[int(rec.anomalous) + sum(
                kt.is_multiplicative and kt.n % p == 0 for kt in types.values())] += 1
            euler[rec.euler_valuation] += 1
    pairs = HeightWindow.from_height(x).pair_count
    return {"pairs": pairs, **buckets}, strict, kodaira, euler, valuations


@pytest.mark.parametrize("p, x", [(5, 10**5), (7, 10**5), (11, 10**5), (5, 10**6)])
def test_growth_census_matches_slow_records(p, x):
    """Every bucket and every histogram of the numpy pass, rebuilt from the
    slow classify path with an independent torsion certificate."""
    buckets, strict, kodaira, euler, valuations = _slow_census(p, x)
    census = survey._growth_census(p, x)
    assert census.counts == buckets
    assert (census.strict_hist, census.kodaira_hist, census.euler_hist) == (strict, kodaira, euler)
    assert survey._growth_census(7, x, (5, 7)).valuation_hists == valuations
    if (p, x) == (5, 10**6):
        assert buckets["torsion_uncertified"] == 5


def _crowded_pairs(p, x, count):
    """Pairs of the height-x box whose delta has 8 or 9 factors among the
    first 12 certificate primes.  a runs over the values with -3a a nonzero
    square mod each of the first 8, so that 27 b^2 = -4 a^3 has two roots
    mod each; b runs over their CRT lifts inside the box."""
    win = HeightWindow.from_height(x)
    first = [q for q in arith.primes_in(5, 100) if q != p][:12]
    chosen = first[:8]
    modulus = math.prod(chosen)
    cofactors = np.array([modulus // q * pow(modulus // q, -1, q) for q in chosen])
    a_all = np.arange(1, win.a_max + 1)
    two_roots = np.ones(len(a_all), dtype=bool)
    for q in chosen:
        two_roots &= np.isin(-3 * a_all % q, np.arange(1, q) ** 2 % q)
    pairs = []
    for a in a_all[two_roots].tolist():
        roots = [[y for y in range(1, q) if (4 * a**3 + 27 * y * y) % q == 0] for q in chosen]
        lifts = np.array(list(itertools.product(*roots))) @ cofactors % modulus
        b = np.concatenate([lifts, lifts - modulus])
        b = b[np.abs(b) <= win.b_max]
        delta = 4 * a**3 + 27 * b * b
        pairs += [(a, int(v)) for v in b[np.isin(sum(delta % q == 0 for q in first), (8, 9))]]
        if len(pairs) >= count:
            return pairs, first[-1]
    raise AssertionError("the box holds too few crowded pairs")


@functools.lru_cache(maxsize=2)
def _crowded_verdicts(p, count):
    """The crowded pairs of the box at x = 2^61, the 12th certificate prime,
    and _certifying_prime of each pair."""
    pairs, q12 = _crowded_pairs(p, 2**61, count)
    return pairs, q12, [_certifying_prime(a, b, p) for a, b in pairs]


def _record_certificate_tables(monkeypatch):
    """Wrap survey._certificate_table: the list it returns collects each q
    and table handed out."""
    handed, table = [], survey._certificate_table

    def recorded(q, p):
        handed.append((q, table(q, p)))
        return handed[-1][1]

    monkeypatch.setattr(survey, "_certificate_table", recorded)
    return handed


def _certified_within_its_primes(a, b, p):
    """_certify(a, b, p), checking that no pair is live after the last of the
    _certificate_primes(p): a prime appended to them is never read."""
    primes = survey._certificate_primes(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(survey, "_certificate_primes", lambda p: primes + (83,))
        handed = _record_certificate_tables(mp)
        certified = survey._certify(a, b, p)
    assert [q for q, _ in handed] == list(primes[:len(handed)])
    return certified


@pytest.mark.parametrize("p, count", [(5, 3000), (7, 12000)])
def test_certificate_pool_holds_five_good_primes(p, count):
    """Pairs with 8 or 9 bad primes among the first 12 certificate primes
    still meet their first five good primes on the walk, including pairs
    that no good prime among those 12 certifies, and the walk ends inside
    the 19 certificate primes: a nonzero |delta| < 2^63 has at most 14
    prime factors >= 5."""
    primes = survey._certificate_primes(p)
    assert len(primes) == 19 and primes[-1] == 79 and p not in primes
    assert math.prod(arith.sieve_primes(59)[2:]) > 2**63
    pairs, q12, verdicts = _crowded_verdicts(p, count)
    late = [i for i, (q, _) in enumerate(verdicts) if q is None or q > q12]
    assert len(late) >= 5
    sample = late + list(range(300))
    a, b = np.array([pairs[i] for i in sample]).T
    assert _certified_within_its_primes(a, b, p).tolist() == [verdicts[i][0] is not None for i in sample]


_BOX_2_62 = HeightWindow.from_height(2**62 - 1)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([5, 7]),
       st.lists(st.tuples(st.integers(-_BOX_2_62.a_max, _BOX_2_62.a_max),
                          st.integers(-_BOX_2_62.b_max, _BOX_2_62.b_max)), min_size=1, max_size=20))
def test_certificate_primes_outlast_drawn_walks(p, pairs):
    """Drawn curves of the box below 2^62 end their walk inside the
    certificate primes too, with the oracle's verdicts."""
    pairs = [(a, b) for a, b in pairs if localdata.discriminant(a, b)]
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    assert _certified_within_its_primes(a, b, p).tolist() == [_oracle_certified(*pair, p) for pair in pairs]


def test_certificate_walk_stops_where_its_pairs_stop(monkeypatch):
    """The census at (7, 10^8) reads at most 9 certificate tables, where a
    pool sized for the box's largest |delta| built 12.  On the crowded pairs
    the walk reads up to the last prime that any pair needs and no further."""
    handed = _record_certificate_tables(monkeypatch)
    survey._growth_census.__wrapped__(7, 10**8)
    assert len({q for q, _ in handed}) <= 9
    for p, count in ((5, 3000), (7, 12000)):
        pairs, _, verdicts = _crowded_verdicts(p, count)
        handed.clear()
        survey._certify(*np.array(pairs).T, p)
        assert max(q for q, _ in handed) == max(last for _, last in verdicts)


def test_classified_csv_pinned():
    """The slow classify path's CSV bytes at x = 10^5, p = 7, pinned so
    that any change to its per-curve local data shows."""
    buf = io.StringIO()
    assert survey.write_csv(survey.enumerate_curves(10**5, p=7), buf) == 7139
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        "31d9b12d7b07fa5e53a7c76c1c2236477bd64a48d330b2a0f09a6bcd65e65d3f"


def test_survey_csv_matches_oracle():
    """The block path writes the oracle's bytes, over boxes that together
    hold every kind of row it must get right, and over the box of one pair
    and no curve (x = 0), of three pairs (x = 4) and the first with b != 0
    (x = 27), whose tiles hold no curve or no kodaira label."""
    kinds = Counter()
    for p in (5, 7, 11, 13):
        for x in (0, 4, 27, 10**3, 10**4, 10**5):
            oracle, fast = io.StringIO(), io.StringIO()
            records = list(survey.enumerate_curves(x, p))
            assert survey.write_survey_csv(x, p, fast) == survey.write_csv(records, oracle)
            assert fast.getvalue() == oracle.getvalue()
            sieve_limit = math.isqrt(HeightWindow.from_height(x).max_abs_discriminant)
            for r in records:
                if r.kodaira is None:
                    continue
                kinds["additive"] += any(not kt.is_multiplicative for _, kt in r.kodaira)
                kinds["factor above sieve limit"] += any(ell > sieve_limit for ell, _ in r.kodaira)
                kinds["bad at p"] += not r.bad_small and r.ordinary is None
                kinds["supersingular"] += r.ordinary is False
                kinds["anomalous"] += bool(r.anomalous)
                kinds["growth >= 1"] += (r.growth_count or 0) >= 1
    assert len(+kinds) == 6, kinds


def test_valuations_match_scalar():
    rng = np.random.default_rng(11)
    for ell in (2, 3, 5, 7, 11):
        values = rng.integers(-2**62, 2**62, size=2000, dtype=np.int64)
        values[::7] = rng.integers(-50, 50, size=len(values[::7])) * ell ** rng.integers(
            1, 12, size=len(values[::7]))
        powers = [ell**k for k in range(1, 62) if ell**k < 2**63]
        values = np.concatenate([values[values != 0], powers, [-q for q in powers]])
        assert survey._valuations(values, ell).tolist() == \
            [localdata.valuation(int(v), ell) for v in values]
    assert survey._valuations(np.array([5**26, -5**26, 7 * 5**26 // 5]), 5).tolist() == [26, 26, 25]
    # one ell per entry, as the CSV reads v_ell on the hits of every prime at once
    ells = rng.choice([5, 7, 11, 13, 1999], size=len(values))
    assert survey._valuations(values, ells).tolist() == \
        [localdata.valuation(int(v), int(ell)) for v, ell in zip(values, ells)]
    values, ells = np.array([5**26, -7**22, 1999**5]), np.array([5, 7, 1999])
    assert survey._valuations(values, ells).tolist() == [26, 22, 5]


def test_classify_path_work(monkeypatch):
    """The classify path works out each curve's local data once: one
    factorization per minimal curve, one point count per curve good at 2, 3
    and p, and no prime check in localdata except the one on p."""
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name, args if name == "check_prime" else None] += 1
            return fn(*args)
        return counted

    for module in (survey, localdata):  # whichever module holds factorize
        if hasattr(module, "factorize"):
            monkeypatch.setattr(module, "factorize", counting("factorize", arith.factorize))
    monkeypatch.setattr(ffcurve, "count_points", counting("count_points", ffcurve.count_points))
    monkeypatch.setattr(localdata, "check_prime", counting("check_prime", localdata.check_prime))
    curves = [r for r in survey.enumerate_curves(10**4, p=7)
              if r.nonsingular and r.minimal]
    good = sum(1 for r in curves if r.delta % 2 and r.delta % 3 and r.delta % 7)
    assert good > 0
    assert calls == Counter({("factorize", None): len(curves), ("count_points", None): good,
                             ("check_prime", (7, 5)): good})


# Recorded from the per-pair loop this pass replaced; the split-Tamagawa
# and Euler branches first fire above x = 10^6, beyond the slow oracle.
PINNED_CENSUS = {
    (5, 10**7): ((13, 322, 329472, 220032, 21888, 17496, 35, 70021),
                 {0: 56849, 1: 13171, 2: 1}, {0: 56847, 1: 13172, 2: 2},
                 {0: 56849, 1: 2, 2: 13169, 3: 1}),
    # recorded from the growth step that read a residue table per candidate ell
    (5, 10**8): ((19, 2284, 2249362, 1499002, 150072, 120120, 242, 479926),
                 {0: 389954, 1: 89969, 2: 3}, {0: 389952, 1: 89968, 2: 6},
                 {0: 389954, 1: 4, 2: 89965, 3: 3}),
    (7, 10**8): ((19, 2284, 2249362, 1499002, 107194, 91516, 16, 551634),
                 {0: 490310, 1: 61323, 2: 1}, {0: 490304, 1: 61329, 2: 1},
                 {0: 490310, 1: 3, 2: 61320, 3: 1}),
    # recorded from the flat-block pass that the tiled one replaced
    (11, 10**8): ((19, 2284, 2249362, 1499002, 68214, 124596, 0, 557550),
                  {0: 526575, 1: 30975}, {0: 526575, 1: 30975}, {0: 526575, 2: 30975}),
    # recorded from the census that handed the certificate all the box's good rows at once
    (5, 10**9): ((29, 15336, 15307924, 10195684, 1022448, 817824, 1510, 3270458),
                 {0: 2657148, 1: 613296, 2: 14}, {0: 2657091, 1: 613337, 2: 30},
                 {0: 2657148, 1: 55, 2: 613241, 3: 14}),
    (7, 10**9): ((29, 15336, 15307924, 10195684, 730800, 626400, 140, 3754900),
                 {0: 3337314, 1: 417585, 2: 1}, {0: 3337301, 1: 417597, 2: 2},
                 {0: 3337314, 1: 7, 2: 417578, 3: 1}),
    # recorded from the tiled pass with a growth step per tile: at x = 10^10 the
    # sub-box of m = 5 = p holds pairs, all singular mod 5
    (5, 10**10): ((43, 103314, 104399708, 69564456, 6967044, 5573352, 10429, 22284427),
                  {0: 18105554, 1: 4178769, 2: 104}, {0: 18105078, 1: 4179133, 2: 216},
                  {0: 18105554, 1: 460, 2: 4178309, 3: 104}),
    (11, 10**11): ((63, 706082, 711216588, 473870412, 21576926, 39201876, 0, 176567374),
                   {0: 166758075, 1: 9809299}, {0: 166758075, 1: 9809299}, {0: 166758075, 2: 9809299}),
}
# v_ell(delta) at x = 10^8 does not depend on p; recorded like (11, 10^8)
PINNED_VALUATIONS = {
    5: {0: 1799524, 1: 287972, 2: 57600, 3: 11524, 4: 2306, 5: 386, 6: 142, 7: 22, 8: 6},
    7: {0: 1928046, 1: 236404, 2: 33772, 3: 4856, 4: 668, 5: 68, 6: 28},
}


@pytest.mark.parametrize("p, x", sorted(PINNED_CENSUS))
def test_growth_census_pinned_histograms(p, x):
    buckets, strict, kodaira, euler = PINNED_CENSUS[p, x]
    census = survey._growth_census(p, x)
    assert census.counts == {"pairs": HeightWindow.from_height(x).pair_count,
                             **dict(zip(survey._BUCKETS, buckets))}
    assert (census.strict_hist, census.kodaira_hist, census.euler_hist) == (strict, kodaira, euler)


@pytest.mark.parametrize("p", [7, 11])
def test_growth_census_pinned_valuations(p):
    assert survey._growth_census(p, 10**8, (5, 7)).valuation_hists == PINNED_VALUATIONS


def test_census_divides_only_where_ell_divides_delta(monkeypatch):
    """v_ell(delta) is worked out only where the counts along the root
    progressions stop: at most one column per row, sub-box and ell, besides
    the growth step's few pairs with 5^11 | delta.  The flat pass divided all
    4,363,324 curves, once for each of 5 and 7, and the residue tables about
    1/ell of them."""
    entries = []
    valuations = survey._valuations

    def counted(values, ell):
        entries.append(len(values))
        return valuations(values, ell)

    monkeypatch.setattr(survey, "_valuations", counted)
    census = survey._growth_census.__wrapped__(11, 10**8, (5, 7))
    assert census.valuation_hists == PINNED_VALUATIONS
    assert sum(entries) <= 2 * (2 * HeightWindow.from_height(10**8).a_max + 1)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_tile_boundaries(p, monkeypatch):
    """Caps of 1 and 7 and of one row's width minus and plus one, for the rows
    of the sub-grid good at 2 and 3 and for whole rows: certificate tiles and
    CSV tiles split rows at every place, growth hit bands hold one row or
    several, and the box census and the hit lister lift row bands of as many
    rows; the census and the CSV still match the slow path, bucket for bucket
    and byte for byte."""
    x = 10**4
    ells = tuple(ell for ell in (5, 7) if ell != p)
    buckets, strict, kodaira, euler, valuations = _slow_census(p, x)
    oracle = io.StringIO()
    survey.write_csv(survey.enumerate_curves(x, p), oracle)
    b_max = HeightWindow.from_height(x).b_max
    odd, width = b_max + b_max % 2, 2 * b_max + 1
    for cap in (1, 7, odd - 1, odd + 1, width - 1, width + 1):
        monkeypatch.setattr(survey, "_BLOCK_PAIRS", cap)
        monkeypatch.setattr(survey, "_CSV_BLOCK_ROWS", cap)
        monkeypatch.setattr(survey, "_ROW_BAND", cap)
        census = survey._growth_census.__wrapped__(p, x, ells)
        assert census.counts == buckets
        assert (census.strict_hist, census.kodaira_hist, census.euler_hist) == (strict, kodaira, euler)
        assert census.valuation_hists == {ell: valuations[ell] for ell in ells}
        fast = io.StringIO()
        survey.write_survey_csv(x, p, fast)
        assert fast.getvalue() == oracle.getvalue()


@pytest.mark.parametrize("x, p", [(5 * 10**4, 5), (10**4, 13)])
def test_csv_tile_boundaries(x, p, monkeypatch):
    """CSV tiles of 1 and 7 pairs, of one row's width minus and plus one and
    of two rows: empty tiles, tiles with no factor >= 5, part rows and runs
    of columns that hold both b and -b, each reading its rows' roots out of
    the roots of every row of the box.  The bytes match the slow path at
    every cap."""
    oracle = io.StringIO()
    survey.write_csv(survey.enumerate_curves(x, p), oracle)
    width = 2 * HeightWindow.from_height(x).b_max + 1
    for cap in (1, 7, width - 1, width + 1, 2 * width):
        monkeypatch.setattr(survey, "_CSV_BLOCK_ROWS", cap)
        fast = io.StringIO()
        survey.write_survey_csv(x, p, fast)
        assert fast.getvalue() == oracle.getvalue(), cap


@pytest.mark.parametrize("scale", [0.5, 1, 2])
def test_survey_csv_pinned_at_1e6(scale, monkeypatch):
    """The CSV at x = 10^6, p = 7, a box ten times the oracle tests' largest,
    pinned to the benchmark's reference bytes, at the default tile size and
    at half and twice it."""
    monkeypatch.setattr(survey, "_CSV_BLOCK_ROWS", int(survey._CSV_BLOCK_ROWS * scale))
    buf = io.StringIO()
    assert survey.write_survey_csv(10**6, 7, buf) == 48_125
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        "68ffb9e6ab6a3457079aff4cf63e768b8bdff24715d2540ec8831a0387617f11"


def test_survey_csv_pinned_at_1e7():
    """The CSV at x = 10^7, p = 7, where most of the 603 primes 5 <= ell <=
    isqrt(max |delta|) exceed a tile's width, so most progressions hold one
    hit or none, pinned to the bytes of the trial division it replaced."""
    buf = io.StringIO()
    assert survey.write_survey_csv(10**7, 7, buf) == 329_807
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        "3eb2fd53cecb1df532c0735d9793d6fe85731da0f18f6d277ec016cdd28a55b0"


@pytest.mark.parametrize("p, x, misses", [(5, 10**8, 242), (7, 10**8, 16), (5, 10**9, 1510)])
def test_torsion_misses_have_a_later_certifying_prime(p, x, misses):
    """The torsion_uncertified pairs, listed by the census's own _in_doubt
    and _certify, each have a certificate prime q with p ∤ #E(F_q) among the
    first 12, past the ones the census walked: they miss the certificate, and
    none has a rational point of order p.  Each has b odd, so v_2(Delta) = 4
    and v_2(c_4) >= 4, the reduction at 2 is additive, and E(Q)[p] embeds in
    a group of order at most 2 c_2 <= 8."""
    win, codes, _ = survey._survey_setup(p, x)
    classifiable = (codes == ffcurve.PointClass.ORDINARY) | (codes == ffcurve.PointClass.ANOMALOUS)
    primes = survey._certificate_primes(p)[:12]
    tables = [classifiable, *(survey._certificate_table(q, p) != 2
                              for q in primes[:survey.TORSION_CERT_PRIMES])]
    rows = np.arange(-win.a_max, win.a_max + 1, dtype=np.int64)
    columns = range(-win.b_max, win.b_max + 1)[1 - win.b_max % 2::2]
    doubt = [(a[fail], b[fail]) for a, b in
             survey._in_doubt(rows[rows % 3 != 0], columns, tables, win.minimality_primes())
             for fail in [~survey._certify(a, b, p)]]
    a, b = (np.concatenate(column) for column in zip(*doubt))
    assert len(a) == misses == survey._growth_census(p, x).counts["torsion_uncertified"]
    assert (b % 2 == 1).all() and (localdata.discriminant(a, b) % 2 == 1).all()
    certified = np.zeros(len(a), dtype=bool)
    for q in primes:
        certified |= survey._certificate_table(q, p)[a % q, b % q] == 2
    assert certified.all()


def test_survey_csv_growth_columns_at_the_first_hit(monkeypatch):
    """At x = 4,876,875 the box first holds a pair of the sub-grid good at 2
    and 3 (3 ∤ a, b odd) where a prime ell != p = 5 adds to the growth:
    (-17, +-425), I5 at ell = 7, split for b = 425 only.  Every row whose
    kodaira field lists an I_m with p | m matches the slow classification,
    with CSV tiles of whole rows, folded to their columns b >= 0, whose hit
    at 425 is split again at -425, and with tiles of one row's width minus
    one, parts of rows that list both columns themselves."""
    x, p = 4_876_875, 5
    win = HeightWindow.from_height(x)
    marks = win.minimality_primes()
    for cap in (survey._CSV_BLOCK_ROWS, 2 * win.b_max):
        monkeypatch.setattr(survey, "_CSV_BLOCK_ROWS", cap)
        buf = io.StringIO()
        survey.write_survey_csv(x, p, buf)
        text = buf.getvalue()
        assert "\r\n-17,425,4876875,1,4857223,7:I5;17:additive,1,1,2,3\r\n" in text
        assert "\r\n-17,-425,4876875,1,4857223,7:I5;17:additive,1,1,1,2\r\n" in text
        # the rows with a label I_m, m ending in 0 or 5; no field holds a comma
        hits = [line.split(",") for line in re.findall(r"^[^\r\n]*:I\d*[05][;,][^\r\n]*", text, re.M)]
        assert len(hits) == 32
        for row in hits:
            a, b = int(row[0]), int(row[1])
            rec = survey.SurveyRecord(a, b, localdata.naive_height(a, b), localdata.discriminant(a, b),
                                      survey._is_minimal_pair(a, b, marks))
            assert row == ["" if v is None else str(v)
                           for v in survey._record_fields(survey._classify_record(rec, p))], cap


def test_only_the_census_lists_growth_hits():
    """_growth_hits, the lister of the pairs where a prime ell != p adds to
    the growth, is called from _growth_census alone: the CSV reads its growth
    columns off the hits that _kodaira_fields finds for its labels."""
    callers = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "ecstats").glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                callers.update(fn.name for node in ast.walk(fn) if isinstance(node, ast.Call)
                               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_growth_hits")
    assert callers == {"_growth_census"}


def test_row_roots_are_the_singular_columns():
    """For every prime 5 <= ell <= 199 and every a mod ell, {b0, -b0} mod ell
    is exactly the set of b mod ell where ell divides delta, and b0 = -1
    exactly where that set is empty."""
    ells = np.array(arith.sieve_primes(199)[2:], dtype=np.int64)
    roots = survey._row_roots(np.arange(199), ells)
    for ell, row in zip(ells.tolist(), roots.tolist()):
        for a in range(ell):
            want = {b for b in range(ell) if ffcurve.discriminant_mod(ell, a, b) == 0}
            assert ({row[a], -row[a] % ell} if row[a] >= 0 else set()) == want, (ell, a)


def _slow_box(x, ells):
    """The singular, nonminimal and curves counts and, for each ell, the
    curves not == (0, 0) mod ell by v_ell(delta), from enumerate_curves."""
    counts = Counter({"singular": 0, "nonminimal": 0, "curves": 0})
    hists = {ell: Counter() for ell in ells}
    for rec in survey.enumerate_curves(x):
        kind = "singular" if not rec.nonsingular else "curves" if rec.minimal else "nonminimal"
        counts[kind] += 1
        for ell, hist in hists.items():
            if kind == "curves" and (rec.a % ell, rec.b % ell) != (0, 0):
                hist[localdata.valuation(rec.delta, ell)] += 1
    return dict(counts), hists


# the box's edges: x = 4k^3 and 27k^2 (and one below) step a_max and b_max, and
# the singular pair (-3t^2, 2t^3) has height 108t^6, on both edges at once
BOX_EDGES = (0, 1, 4 * 6**3 - 1, 4 * 6**3, 4 * 13**3, 27 * 19**2 - 1, 27 * 19**2, 27 * 50**2,
             107, 108, 109, 108 * 2**6 - 1, 108 * 2**6, 108 * 3**6)


@pytest.mark.parametrize("x", BOX_EDGES)
def test_box_census_matches_enumerate_curves(x):
    """The closed-form counts and v_ell histograms equal the per-pair ones."""
    ells = (5, 7, 11, 13)
    counts, hists = _slow_box(x, ells)
    census = survey._growth_census.__wrapped__(7, x, ells)
    assert {k: census.counts[k] for k in counts} == counts
    assert census.counts["pairs"] == HeightWindow.from_height(x).pair_count
    assert census.valuation_hists == hists


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 * 10**5))
def test_box_census_matches_enumerate_curves_drawn(x):
    counts, hists = _slow_box(x, (5, 7, 11, 13))
    codes = ffcurve.class_code_table(7)
    assert survey._box_census(HeightWindow.from_height(x), (5, 7, 11, 13), codes)[:2] == (counts, hists)


@pytest.mark.parametrize("x", [10**12, 10**15])
def test_box_census_totals_past_the_oracles(x):
    """Where 5^4 <= a_max, so that the sub-boxes of m = 5, 10, ... hold pairs
    other than (0, 0): each v_ell histogram sums to the curves not == (0, 0)
    mod ell, counted as curves minus a Möbius sum over the pairs (ell a,
    ell b), and the buckets partition the pairs."""
    win = HeightWindow.from_height(x)
    assert win.a_max >= 5**4
    box, hists, _ = survey._box_census(win, (5, 7, 11, 13), ffcurve.class_code_table(7))
    assert box["singular"] + box["nonminimal"] + box["curves"] == win.pair_count
    for ell, hist in hists.items():
        zero = 0  # minimal nonsingular (a, b) == (0, 0) mod ell
        for m in range(1, 33):
            factors = [q for q in arith.primes_in(2, 31) if m % q == 0]
            if math.prod(factors) != m:
                continue
            da, db = math.lcm(ell, m**4), math.lcm(ell, m**6)
            rows, cols = win.a_max // da, win.b_max // db
            t = [t for t in range(1, math.isqrt(win.a_max // 3) + 1)
                 if 3 * t * t % da == 0 and 2 * t**3 % db == 0 and 2 * t**3 <= win.b_max]
            zero += (-1) ** len(factors) * ((2 * rows + 1) * (2 * cols + 1) - 1 - 2 * len(t))
        assert sum(hist.values()) == box["curves"] - zero


def test_root_lifts_at_the_height_limit():
    """On the rows of largest |a| at x = 2^62 - 1, where 2 b_max + 1 ~ 1.65e9:
    every root _lifts gives is re-checked with Python integers (r_k == b0 mod
    ell, |r_k| < ell^k / 2, ell^k | 4a^3 + 27 r_k^2), as is the v_ell of each
    column listed past the last counted level, and the histogram, summed
    over the Möbius sub-bands as the census sums it, counts exactly the
    curves of the band not == (0, 0) mod ell.  The band at -a_max holds the
    singular pairs (-3 * 591^2, +-2 * 591^3)."""
    win = HeightWindow.from_height(2**62 - 1)
    width = 2 * win.b_max + 1
    bands = [(-win.a_max, -win.a_max + 800), (win.a_max - 800, win.a_max)]
    assert -3 * 591**2 in range(*bands[0]) and 2 * 591**3 <= win.b_max
    for ell in (5, 7, 11, 13):
        for lo, hi in bands:
            a = np.arange(lo, hi + 1)
            a = a[a % ell != 0]
            b0 = survey._row_roots(a, np.array([ell]))[0]
            a, b0 = a[b0 >= 0], b0[b0 >= 0]
            levels = list(survey._lifts(a, b0, ell, width))
            assert [m for m, _ in levels] == [ell**k for k in range(1, len(levels) + 1)]
            assert levels[-2][0] <= width < levels[-1][0]
            for modulus, r in levels:
                for ai, ri, si in zip(a.tolist(), r.tolist(), b0.tolist()):
                    assert (4 * ai**3 + 27 * ri * ri) % modulus == 0 and (ri - si) % ell == 0
                    assert 2 * abs(ri) < modulus
            listed = Counter()
            for ai, ri in zip(a.tolist(), levels[-1][1].tolist()):
                b = (ri + win.b_max) % levels[-1][0] - win.b_max
                if b <= win.b_max and 4 * ai**3 + 27 * b * b:
                    listed[localdata.valuation(4 * ai**3 + 27 * b * b, ell)] += 2
            hist = survey._valuation_counts(np.arange(lo, hi + 1), win.b_max, ell)
            assert {v: c for v, c in hist.items() if v >= len(levels)} == listed
            # the Möbius sums over m, ell ∤ m, of the histogram and of an independent count
            total = count = 0
            for m in range(1, 33):
                factors = [q for q in arith.primes_in(2, 31) if m % q == 0]
                if math.prod(factors) != m or m % ell == 0:
                    continue
                mu, rows = (-1) ** len(factors), range(-(-lo // m**4), hi // m**4 + 1)
                b_max = win.b_max // m**6
                total += mu * sum(survey._valuation_counts(np.arange(rows.start, rows.stop),
                                                           b_max, ell).values())
                t = [t for t in range(1, 600) if -3 * t * t in rows and 2 * t**3 <= b_max and t % ell]
                zero_rows = sum(1 for ai in rows if ai % ell == 0)
                count += mu * (len(rows) * (2 * b_max + 1) - zero_rows * (2 * (b_max // ell) + 1) - 2 * len(t))
            assert total == count > 0


KODAIRA_FIELDS = {
    (5, 5): "5:additive;47:I1",          # delta = 5^2 * 47
    (-2, 1): "5:I1",                     # delta = -5
    (-3, 1): "",                         # delta = -3^4
    (6, 0): "",                          # delta = 2^5 * 3^3
    (2, 3): "5:I2;11:I1",                # delta = 5^2 * 11
    (10, -15): "5:additive;13:I1;31:I1",
    (14, -7): "7:additive;251:I1",       # 251 is above the primes sieved
    (4, 1): "283:I1",                    # so is 283
    (-8, 5): "1373:I1",                  # delta = -1373
}


def test_kodaira_fields_match_the_slow_path():
    """Hand-picked curves: an additive prime, I2, negative deltas, a delta of
    2s and 3s only, and prime cofactors above the largest prime sieved, each
    field equal to the per-curve classification's.  They sit in one tile of
    their rows a and the run of columns b from -15 to 5, where they are the
    only curves.  The hits returned beside the fields are each curve's primes
    ell >= 5 sieved that divide delta, with v_ell(delta)."""
    a = np.array([ai for ai, _ in KODAIRA_FIELDS], dtype=np.int64)
    b = np.arange(-15, 6, dtype=np.int64)
    delta = 4 * a[:, None] ** 3 + 27 * b * b
    curve = np.zeros(delta.shape, dtype=bool)
    for i, (_, bi) in enumerate(KODAIRA_FIELDS):
        curve[i, bi + 15] = True
    ells = np.array(arith.sieve_primes(math.isqrt(int(np.abs(delta[curve]).max())))[2:],
                    dtype=np.int64)
    fields, (hit, ell, v) = survey._kodaira_fields(a, b, delta, curve, survey._row_roots(a, ells), ells)
    assert fields[curve].tolist() == list(KODAIRA_FIELDS.values())
    assert set(fields[~curve].tolist()) == {""}
    row, column = np.divmod(hit, len(b))
    assert sorted(zip(a[row].tolist(), b[column].tolist(), ell.tolist(), v.tolist())) == sorted(
        (ai, bi, q, localdata.valuation(4 * ai**3 + 27 * bi * bi, q))
        for ai, bi in KODAIRA_FIELDS for q in ells.tolist() if (4 * ai**3 + 27 * bi * bi) % q == 0)
    for (ai, bi), want in KODAIRA_FIELDS.items():
        rec = survey.SurveyRecord(ai, bi, localdata.naive_height(ai, bi),
                                  4 * ai**3 + 27 * bi * bi, True)
        assert survey._record_fields(survey._classify_record(rec, 7))[5] == want


def test_split_rows_keep_the_pinned_census(monkeypatch):
    """Certificate tiles and hit bands of one row's width minus one, in the
    sub-grid good at 2 and 3 (the odd b), where every growth branch fires: the
    certificate tables are read in two runs of columns, and the hits are
    listed in row bands of 64 rows."""
    x = 10**7
    b_max = HeightWindow.from_height(x).b_max
    monkeypatch.setattr(survey, "_BLOCK_PAIRS", b_max + b_max % 2 - 1)
    monkeypatch.setattr(survey, "_ROW_BAND", 64)
    buckets, strict, kodaira, euler = PINNED_CENSUS[5, x]
    census = survey._growth_census.__wrapped__(5, x)
    assert census.counts == {"pairs": HeightWindow.from_height(x).pair_count,
                             **dict(zip(survey._BUCKETS, buckets))}
    assert (census.strict_hist, census.kodaira_hist, census.euler_hist) == (strict, kodaira, euler)


@pytest.mark.parametrize("p", [5, 7])
def test_census_walks_the_rows_once_in_bands(p, monkeypatch):
    """In bands of 64 rows, the census at x = 10^9, whose 1,259 rows make one
    band of _ROW_BAND, keeps the pinned buckets and histograms, and the
    certificate pass and the hit lister each receive every good row (3 ∤ a)
    of the box exactly once, in order, in bands of at most 64 rows."""
    x, seen = 10**9, {"_in_doubt": [], "_growth_hits": []}
    for name, bands in seen.items():
        def recorded(rows, *args, fn=getattr(survey, name), bands=bands):
            bands.append(rows.tolist())
            return fn(rows, *args)
        monkeypatch.setattr(survey, name, recorded)
    monkeypatch.setattr(survey, "_ROW_BAND", 64)
    buckets, strict, kodaira, euler = PINNED_CENSUS[p, x]
    census = survey._growth_census.__wrapped__(p, x)
    assert census.counts == {"pairs": HeightWindow.from_height(x).pair_count,
                             **dict(zip(survey._BUCKETS, buckets))}
    assert (census.strict_hist, census.kodaira_hist, census.euler_hist) == (strict, kodaira, euler)
    a_max = HeightWindow.from_height(x).a_max
    for bands in seen.values():
        assert len(bands) == -(-(2 * a_max + 1) // 64) and max(map(len, bands)) <= 64
        assert sum(bands, []) == [a for a in range(-a_max, a_max + 1) if a % 3]


def test_growth_hits_lift_each_row_once(monkeypatch):
    """At (5, 10^10), the first pinned height where the hits of 7^5 <= 2 b_max
    + 1 come as progressions of several columns, and with groups sized for
    _BLOCK_PAIRS = 4096 hits, the census keeps its pinned buckets and
    histograms, and the lister lifts each row once: for each candidate the
    rows lifted are disjoint and together are the good rows (3 ∤ a) with a
    root, each group calls _lifts once per candidate, in order, on a run of
    at most max(1, 4096 // per_row) consecutive good rows, per_row bounding
    the odd hit columns of a row, and each group lists at most 4096 hits
    unless they all lie in one row."""
    x, lifted, listed = 10**10, [], []
    lifts, growth_hits = survey._lifts, survey._growth_hits

    def recorded_lifts(a, b0, ell, width):
        lifted.append((ell, a.tolist()))
        return lifts(a, b0, ell, width)

    def recorded_hits(rows, *args):
        for item in growth_hits(rows, *args):
            listed.append(rows[item[0]].tolist())
            yield item

    monkeypatch.setattr(survey, "_lifts", recorded_lifts)
    monkeypatch.setattr(survey, "_growth_hits", recorded_hits)
    monkeypatch.setattr(survey, "_BLOCK_PAIRS", 4096)
    buckets, strict, kodaira, euler = PINNED_CENSUS[5, x]
    census = survey._growth_census.__wrapped__(5, x)
    assert census.counts == {"pairs": HeightWindow.from_height(x).pair_count,
                             **dict(zip(survey._BUCKETS, buckets))}
    assert (census.strict_hist, census.kodaira_hist, census.euler_hist) == (strict, kodaira, euler)
    win, _, candidates = survey._survey_setup(5, x)
    good = np.array([a for a in range(-win.a_max, win.a_max + 1) if a % 3])
    width = 2 * win.b_max + 1
    per_row = sum(2 * ((width - 1) // (2 * min(ell**5, width + 1)) + 1) for ell in candidates)
    step = max(1, 4096 // per_row)
    assert 1 < step < len(good) and any(ell**5 <= width for ell in candidates)
    for ell in candidates:
        rows = [a for e, a_list in lifted if e == ell for a in a_list]
        assert sorted(rows) == good[survey._row_roots(good, np.array([ell]))[0] > 0].tolist()
    groups = [lifted[k:k + len(candidates)] for k in range(0, len(lifted), len(candidates))]
    assert len(groups) == -(-len(good) // step) and len(listed) > 1
    position = {a: k for k, a in enumerate(good.tolist())}
    for group in groups:
        assert [ell for ell, _ in group] == candidates
        rows = sorted(position[a] for _, a_list in group for a in a_list)
        assert not rows or rows[-1] - rows[0] < step
    for rows in listed:
        assert len(rows) <= 4096 or len(set(rows)) == 1


def _record_doubt_passes(monkeypatch):
    """Wrap survey._in_doubt and survey._blocks: the lists returned collect
    the tables of each certificate pass and each tile (rows, first column,
    columns) the pass walks."""
    passes, tiles, in_doubt, blocks = [], [], survey._in_doubt, survey._blocks

    def recorded(rows, columns, tables, marks):
        passes.append(tables)
        return in_doubt(rows, columns, tables, marks)

    def tiled(rows, columns, cap):
        for a, b in blocks(rows, columns, cap):
            tiles.append((len(a), int(b[0]), len(b)))
            yield a, b

    monkeypatch.setattr(survey, "_in_doubt", recorded)
    monkeypatch.setattr(survey, "_blocks", tiled)
    return passes, tiles


def _peak_bytes(fn, *args):
    """fn(*args) and the peak of the memory tracemalloc sees it allocate,
    numpy buffers included."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_column_tables_are_bounded(monkeypatch):
    """At x = 10^8 whole rows make a tile, so the certificate pass reads the
    columns of its tables, the mask of the classes ordinary or anomalous at p
    and the first five certificate tables, once, over the odd b alone: together under 256 KB, and
    the whole census stays under 1 MB.  No table is read for ell = 5, whose
    histogram is counted along the rows, nor for the growth candidates, whose
    hits are listed along them, nor at p = 11, where nothing is in doubt."""
    passes, tiles = _record_doubt_passes(monkeypatch)
    census, peak = _peak_bytes(survey._growth_census.__wrapped__, 7, 10**8, (5,))
    odd = HeightWindow.from_height(10**8).b_max
    assert census.counts["torsion_uncertified"] == PINNED_CENSUS[7, 10**8][0][6]
    assert len(passes) == 1 and len(passes[0]) == 1 + 5
    assert {(first, width) for _, first, width in tiles} == {(1 - odd, odd)}
    assert max(rows * width for rows, _, width in tiles) <= survey._BLOCK_PAIRS
    assert sum(len(table) for table in passes[0]) * odd <= 2**18 and peak <= 2**20
    survey._growth_census.__wrapped__(11, 10**8, (5,))
    assert len(passes) == 1


def test_census_memory_at_1e15():
    """At x = 10^15 the box has 125,993 rows and 12,171,613 columns, and a
    census at p = 11 walks none of them: the buckets at p are lattice counts,
    the hits are listed in row bands, and the v_ell histograms are counted
    along the rows in bands, one band of rows at a time.  The memory it
    allocates peaks under 1 MB (0.82 MB measured; 2.05 MB when the census
    built the box's rows at once), where the odd columns alone would take
    6.1e6 x 8 bytes."""
    census, peak = _peak_bytes(survey._growth_census.__wrapped__, 11, 10**15, (5, 7))
    assert sum(census.counts[k] for k in survey._BUCKETS[3:]) == census.counts["curves"]
    assert census.counts["classified"] == sum(census.strict_hist.values()) > 0
    assert peak <= 2**20


def _first_band(monkeypatch):
    """Cut the census to its first row band, and that band to its first
    certificate tile and its first group of growth hits (whole rows that list
    at most _BLOCK_PAIRS hits by the bound on a row's odd hit columns, or one
    row): the first call of survey._in_doubt and of survey._growth_hits
    yields its first item, and every later call yields nothing.  The lists
    returned collect that group and the number of rows of every call, the
    certificate's and the lister's."""
    listed, calls = [], ([], [])

    def cut(name, rows_seen, sink):
        fn = getattr(survey, name)

        def first(rows, *args):
            rows_seen.append(len(rows))
            if len(rows_seen) == 1:
                for item in itertools.islice(fn(rows, *args), 1):
                    sink.append(item)
                    yield item
        monkeypatch.setattr(survey, name, first)

    cut("_in_doubt", calls[0], [])
    cut("_growth_hits", calls[1], listed)
    return listed, calls


def test_tile_memory_at_the_height_limit(monkeypatch):
    """At x = 2^62 - 1 a row of the sub-grid good at 2 and 3 holds about
    4.1e8 pairs.  Cut to its first row band, and that band to its first
    certificate tile and its first group of growth hits, the census at p = 7
    runs in bounded memory: the tile is part of one row, within the cap, whose
    run of columns the tables are read on (5 + 7 + 11 + 13 + 17 + 19 rows of
    _BLOCK_PAIRS bytes); it reads at most five certificate tables densely, the
    rest only on the pairs they leave in doubt; the hits come from a group of
    the band's good rows that lists at most _BLOCK_PAIRS by the bound, or from
    one row (6 rows here: a row holds at most about 2 b_max / 5^7 ~ 10,600
    odd hit columns for ell = 5).  The census hands the certificate and the lister
    the good rows of its 256 bands of _ROW_BAND rows, one band at a time, and
    the box census hands its rows to the progression counts in bands of at
    most _ROW_BAND, which are not counted, so no array holds the box's rows.
    The lattice counts the whole box, so only the uncertified pairs and the
    moved histogram bins are the listed part's."""
    win = HeightWindow.from_height(2**62 - 1)
    assert win.b_max + win.b_max % 2 > 4 * 10**8
    passes, tiles = _record_doubt_passes(monkeypatch)
    (listed, calls), bands = _first_band(monkeypatch), []
    monkeypatch.setattr(survey, "_valuation_counts", lambda a, b_max, ell: bands.append(len(a)) or Counter())
    census, peak = _peak_bytes(survey._growth_census.__wrapped__, 7, 2**62 - 1, (5,))
    assert tiles == [(1, -win.b_max + 1 - win.b_max % 2, survey._BLOCK_PAIRS)]
    assert census.counts["torsion_uncertified"] <= survey._BLOCK_PAIRS
    assert sum(bands) > 2 * win.a_max and max(bands) <= survey._ROW_BAND
    assert calls[0] == calls[1] and len(calls[0]) == 256 and max(calls[0]) <= survey._ROW_BAND
    assert sum(calls[0]) == 2 * win.a_max + 1 - (2 * (win.a_max // 3) + 1)  # the rows with 3 ∤ a
    assert len(listed) == 1 and max(listed[0][0]) < survey._ROW_BAND
    assert 0 < len(listed[0][0]) <= survey._BLOCK_PAIRS
    assert len(passes) == 1 and len(passes[0]) == 1 + survey.TORSION_CERT_PRIMES
    # the tables' rows over one run of columns, and one band's rows and hits
    assert peak <= (sum(map(len, passes[0])) + 32) * survey._BLOCK_PAIRS
    for hist in (census.strict_hist, census.kodaira_hist, census.euler_hist):
        assert sum(hist.values()) == census.counts["classified"] > 0


def test_census_at_the_height_limit_at_p_5(monkeypatch):
    """At p = 5 and x = 2^62 - 1, where 804 primes can add to the growth,
    the census runs: cut to its first row band, and that band to its first
    certificate tile and its first group of growth hits, one row here (the
    bound on a row's odd hit columns, about 2 b_max / 7^5 ~ 49,000 for ell =
    7 alone, leaves no room for two rows in _BLOCK_PAIRS hits), its buckets
    still partition the curves and its histograms
    the classified ones, and the listed hits move at most their own pairs.
    It builds a chi table only for a prime with hits in the band, so far fewer
    than the 64 character tables that ffcurve caches."""
    chi_table, asked = ffcurve.chi_table, []
    listed, _ = _first_band(monkeypatch)
    monkeypatch.setattr(ffcurve, "chi_table", lambda ell: asked.append(ell) or chi_table(ell))
    census = survey._growth_census.__wrapped__(5, 2**62 - 1)
    assert len(survey._survey_setup(5, 2**62 - 1)[2]) == 804 and len(asked) < 64
    assert sum(census.counts[k] for k in survey._BUCKETS[3:]) == census.counts["curves"]
    assert census.counts["torsion_uncertified"] <= survey._BLOCK_PAIRS
    for hist in (census.strict_hist, census.kodaira_hist, census.euler_hist):
        assert sum(hist.values()) == census.counts["classified"] > 0
    assert census.tail(census.kodaira_hist, 2) <= len(listed[0][0])


def test_kodaira_view_needs_its_ell():
    census = survey._growth_census(7, 10**4, (5,))
    with pytest.raises(DomainError, match=r"ell = 11 .*\(5,\)"):
        survey.empirical_kodaira_density(census, 11, 1)


def _dense_growth(a, b, delta, code, p, candidates):
    """The strict and Kodaira-only counts and Euler valuations of the growth
    at p on the tile a x b, from a scan of every pair for ell^p | delta with
    the per-pair split rule, and the (i, ell) the scan finds, i flat in the
    tile and ell ∤ a."""
    flag = (code == ffcurve.PointClass.ANOMALOUS).astype(np.int64)
    strict, kodaira, euler, found = flag.copy(), flag.copy(), 2 * flag, []
    for ell in candidates:
        for i in np.flatnonzero((delta % ell**p == 0) & np.repeat(a % ell != 0, len(b))).tolist():
            ai, bi = int(a[i // len(b)]), int(b[i % len(b)])
            found.append((i, ell))
            v = localdata.valuation(int(delta[i]), ell)
            if v % p == 0:
                kodaira[i] += 1
                if localdata._split_from_residues(ai % ell, bi % ell, ell):
                    strict[i] += 1
                    euler[i] += localdata.valuation(v, p)
    return strict, kodaira, euler, found


def _good_tiles(x, cap):
    """The tiles a x b of the sub-grid good at 2 and 3 (3 ∤ a, b odd) of the
    height-x box, from its tiles of `cap` pairs."""
    win = HeightWindow.from_height(x)
    for a, b in survey._blocks(np.arange(-win.a_max, win.a_max + 1), range(-win.b_max, win.b_max + 1), cap):
        if (a % 3 != 0).any() and (b % 2 != 0).any():
            yield a[a % 3 != 0], b[b % 2 != 0]


def _listed_growth(a, b, code, p, candidates):
    """The strict and Kodaira-only counts and Euler valuations of the growth
    on the tile a x b (b odd, consecutive) from survey._growth_hits."""
    flag = (code == ffcurve.PointClass.ANOMALOUS).astype(np.int64)
    strict, kodaira, euler = flag.copy(), flag.copy(), 2 * flag
    for i, hit, v, split in survey._growth_hits(a, int(b[0]), int(b[-1]), p, candidates):
        at = i * len(b) + (hit - b[0]) // 2
        np.add.at(kodaira, at, 1)
        np.add.at(strict, at[split], 1)
        np.add.at(euler, at[split], [localdata.valuation(int(w), p) for w in v[split]])
    return strict, kodaira, euler


def _growth_tiles(x):
    """Tiles a x b of the sub-grid good at 2 and 3 of the height-x box: its
    first 16 at x < 2^62 - 1.  At 2^62 - 1, where a tile is part of a row,
    one of the 8 rows nearest a_max with 3, 5 and 7 ∤ a and roots mod 5 and
    7, and the 2^14 odd b from -b_max."""
    win = HeightWindow.from_height(x)
    if x < 2**62 - 1:
        return list(itertools.islice(_good_tiles(x, 3 * survey._BLOCK_PAIRS), 16))
    a = np.arange(win.a_max, win.a_max - 400, -1)
    a = a[(a % 3 != 0) & np.all(survey._row_roots(a, np.array([5, 7])) > 0, axis=0)][:8]
    lo = -win.b_max + 1 - win.b_max % 2
    return [(a, np.arange(lo, lo + 2**15, 2))]


@pytest.mark.parametrize("p, x", [(5, 10**8), (7, 10**8), (5, 3 * 10**9), (5, 2**62 - 1), (7, 2**62 - 1)])
def test_growth_hits_match_the_dense_scan(p, x):
    """The growth hits listed on each of _growth_tiles give the strict and
    Kodaira-only counts and Euler valuations of a dense scan of the tile for
    ell^p | delta with the split rule of localdata.  Each minimal curve good
    at p that the scan finds or the lister counts gets the strict,
    Kodaira-only and Euler values of localdata.tamagawa_anomaly_count.  At x
    = 10^8 every candidate ell != p has ell^p > 2 b_max + 1, so the lifts stop
    at one column per sign; at 3e9 the hits of 7^5 <= 2 b_max + 1 come as
    progressions, as do those of the ell <= 69 (p = 5) or 19 (p = 7) at 2^62
    - 1, where a progression of 7^5 holds several columns of the tile."""
    win, codes, candidates = survey._survey_setup(p, x)
    min_primes, progressions, checked = win.minimality_primes(), 0, 0
    for a, b in _growth_tiles(x):
        delta = localdata.discriminant(a[:, None], b).ravel()
        code = codes[(a % p)[:, None], b % p].ravel()
        strict, kodaira, euler = _listed_growth(a, b, code, p, candidates)
        dense = _dense_growth(a, b, delta, code, p, candidates)
        assert [g.tolist() for g in (strict, kodaira, euler)] == [g.tolist() for g in dense[:3]]
        found = dense[3]
        counted = set(np.flatnonzero(kodaira > (code == ffcurve.PointClass.ANOMALOUS)).tolist())
        assert counted <= {i for i, _ in found}
        progressions += sum(ell**p <= 2 * win.b_max + 1 for _, ell in found)
        for i in sorted({i for i, _ in found}):
            ai, bi = int(a[i // len(b)]), int(b[i % len(b)])
            if code[i] == ffcurve.PointClass.SINGULAR or not survey._is_minimal_pair(ai, bi, min_primes):
                continue
            growth = localdata.tamagawa_anomaly_count(ai, bi, p)
            kodaira_only = growth.anomalous_flag + sum(kt.is_multiplicative and kt.n % p == 0
                                                       for _, kt in growth.kodaira)
            assert (strict[i], kodaira[i], euler[i]) == (growth.total, kodaira_only,
                                                         growth.euler_valuation)
            checked += 1
    assert checked > 0 and (progressions > 0) == (x > 10**8)


def _dense_census(p, x):
    """The buckets at p and the strict, Kodaira-only and Euler histograms of
    the census, from a dense pass over the tiles of the sub-grid good at 2
    and 3: the class codes, the minimal flags, the torsion certificate
    (survey._certify) on every curve ordinary or anomalous at p and the
    growth of _dense_growth.  Every other curve is bad at 2 or 3."""
    win, codes, candidates = survey._survey_setup(p, x)
    marks = [(ell**4, ell**6) for ell in arith.sieve_primes(60)]
    counts, hists = Counter(), (Counter(), Counter(), Counter())
    for a, b in _good_tiles(x, survey._BLOCK_PAIRS):
        delta = localdata.discriminant(a[:, None], b).ravel()
        code = codes[(a % p)[:, None], b % p].ravel()
        minimal = np.ones(delta.shape, dtype=bool)
        for p4, p6 in marks:
            minimal &= ((a[:, None] % p4 != 0) | (b % p6 != 0)).ravel()
        keep = minimal & ((code == ffcurve.PointClass.ORDINARY) | (code == ffcurve.PointClass.ANOMALOUS))
        counts["bad_at_p"] += int(np.count_nonzero(minimal & (code == ffcurve.PointClass.SINGULAR)))
        counts["supersingular_at_p"] += int(np.count_nonzero(minimal & (code == ffcurve.PointClass.SUPERSINGULAR)))
        if p in (5, 7):
            i = np.flatnonzero(keep)
            doubt = i[~survey._certify(a[i // len(b)], b[i % len(b)], p)]
            keep[doubt] = False
            counts["torsion_uncertified"] += len(doubt)
        counts["classified"] += int(np.count_nonzero(keep))
        for hist, values in zip(hists, _dense_growth(a, b, delta, code, p, candidates)):
            hist.update(values[keep].tolist())
    return counts, hists


def _assert_dense_census(p, x):
    counts, hists = _dense_census(p, x)
    census = survey._growth_census.__wrapped__(p, x)
    assert {k: census.counts[k] for k in survey._BUCKETS[4:]} == {k: counts[k] for k in survey._BUCKETS[4:]}
    assert (census.strict_hist, census.kodaira_hist, census.euler_hist) == hists


@pytest.mark.parametrize("p", [5, 13])
def test_census_matches_the_dense_pass(p):
    """Bucket for bucket and histogram for histogram, the census from lattice
    counts and listed hits equals a dense pass over the pairs good at 2 and
    3 at x = 10^9: at p = 5, 17 candidates from 7 to 71 and 1,510 curves the
    torsion certificate leaves in doubt; at p = 13, one candidate and no
    certificate.  (Progressions of several columns first come at p = 5 past
    x = 27 * 8404^2, where 7^5 <= 2 b_max + 1: PINNED_CENSUS holds 10^10.)"""
    _assert_dense_census(p, 10**9)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([5, 7, 11, 13]), st.integers(0, 10**7))
def test_census_matches_the_dense_pass_drawn(p, x):
    _assert_dense_census(p, x)


def test_growth_census_bucket_partition():
    g = survey.empirical_selmer_growth(survey._growth_census(7, 10**5), 1)
    c = g.counts
    assert c["pairs"] == c["singular"] + c["nonminimal"] + c["curves"]
    assert c["curves"] == (c["bad_at_2_or_3"] + c["bad_at_p"] +
                           c["supersingular_at_p"] + c["torsion_uncertified"] +
                           c["classified"])
    assert c["growth_ge_n_kodaira_only"] >= c["growth_ge_n_strict"]


def test_growth_census_checks_primes_before_scanning(monkeypatch):
    def no_scan(x):
        raise AssertionError("the census scanned before checking its primes")

    monkeypatch.setattr(survey.HeightWindow, "from_height", no_scan)
    with pytest.raises(NotPrimeError):
        survey._growth_census(7, 100, (4,))
    with pytest.raises(PrimeTooSmallError):
        survey._growth_census(7, 100, (5, 3))


def test_views_share_one_n_check():
    census = survey._growth_census(7, 100, (5,))
    for view in (survey.empirical_selmer_growth, survey.empirical_euler_divisibility,
                 lambda c, n: survey.empirical_kodaira_density(c, 5, n)):
        with pytest.raises(DomainError, match="n must be >= 1"):
            view(census, 0)


def test_growth_census_determinism():
    a = survey.empirical_selmer_growth(survey._growth_census(7, 10**4), 1)
    b = survey.empirical_selmer_growth(survey._growth_census(7, 10**4), 1)
    assert a.counts == b.counts and a.empirical == b.empirical


def test_summary_json_roundtrip():
    s = survey.empirical_kodaira_density(survey._growth_census(7, 10**4, (5,)), 5, 1)
    js = s.to_json()
    assert js["kind"] == "kodaira_density"
    assert js["counts"]["curves"] == s.counts["curves"]
    assert js["empirical"]["fraction"] == str(s.empirical)
    assert js["version"]
    # an empty census classifies no curve: no ratio, so no gap to report
    s = survey.empirical_selmer_growth(survey._growth_census(7, 0), 1)
    assert s.empirical is None and s.absolute_gap is None and s.to_json()["absolute_gap"] is None


def test_kodaira_classes_partition_curves():
    """Good, I_n (each n) and additive at a fixed ell partition the
    minimal nonsingular curves."""
    x, ell = 10**4, 5
    good = additive = 0
    mult = {}
    total = 0
    for rec in survey.enumerate_curves(x, p=7):
        if not (rec.minimal and rec.nonsingular):
            continue
        total += 1
        entry = next((kt for q, kt in rec.kodaira if q == ell), None)
        if entry is None:
            good += 1
        elif entry.is_multiplicative:
            mult[entry.n] = mult.get(entry.n, 0) + 1
        else:
            additive += 1
    assert good + additive + sum(mult.values()) == total
    s = survey.empirical_kodaira_density(survey._growth_census(7, x, (ell,)), ell, 1)
    assert mult.get(1, 0) == s.counts["type_In_at_ell"]


def test_kodaira_predicate_agrees_with_exhaustive_measure():
    """The I_n measure counted from histograms equals a literal count of the
    type-I_n residue pairs over the whole grid, and the closed form."""
    for ell, n in [(5, 1), (5, 2), (7, 1)]:
        mod = ell ** (n + 1)
        grid = np.arange(mod * mod, dtype=np.int64)
        a, b = grid // mod, grid % mod
        delta = (4 * a**3 + 27 * b**2) % mod
        type_In = ((a % ell != 0) | (b % ell != 0)) & (delta % ell**n == 0) & (delta != 0)
        frac = Fraction(int(type_In.sum()), mod * mod)
        assert verify.counted_In_measure(ell, n) == frac == density.density_In(ell, n)


def test_box_predicate_agrees_with_exhaustive_measure():
    for ell, v1, v2, want in [(5, 1, 2, Fraction(1, 125)), (7, 2, 0, Fraction(1, 49))]:
        mod = ell ** max(v1, v2)
        grid = np.arange(mod * mod, dtype=np.int64)
        a, b = grid // mod, grid % mod
        frac = Fraction(int(((a % ell**v1 == 0) & (b % ell**v2 == 0)).sum()), mod * mod)
        assert verify.counted_box_measure(ell, v1, v2) == frac == want


def test_csv_sink():
    buf = io.StringIO()
    rows = survey.write_csv(survey.enumerate_curves(10**3, p=7), buf)
    text = buf.getvalue().splitlines()
    assert text[0] == ",".join(survey.CSV_COLUMNS)
    assert rows == HeightWindow.from_height(10**3).pair_count == len(text) - 1
    # spot check: the curve (1, 1) has delta 31, type I1 at 31
    line = next(l for l in text if l.startswith("1,1,"))
    assert "31:I1" in line


def test_classified_record_fields():
    rec = next(r for r in survey.enumerate_curves(10**3, p=7)
               if (r.a, r.b) == (1, 1))
    assert rec.minimal and rec.nonsingular and not rec.bad_small
    assert rec.ordinary is True and rec.anomalous is False
    assert rec.growth_count == 0 and rec.euler_valuation == 0
    assert rec.kodaira == ((31, localdata.kodaira_type(1, 1, 31)),)
