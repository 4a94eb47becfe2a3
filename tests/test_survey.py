import hashlib
import io
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ecstats import arith, density, ffcurve, localdata, survey, verify
from ecstats.errors import DomainError, NotPrimeError, PrimeTooSmallError
from ecstats.survey import HeightWindow


def test_count_pairs_examples():
    assert survey.count_pairs(10**4) == 1053
    assert survey.count_pairs(27) == 9
    assert survey.count_pairs(0) == 1
    with pytest.raises(ValueError):
        survey.count_pairs(-1)


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
    assert s.counts["pairs"] == survey.count_pairs(10**6)
    assert s.counts["singular"] + s.counts["nonminimal"] + s.counts["curves"] \
        == s.counts["pairs"]
    assert abs(s.empirical - s.theoretical.midpoint) < Fraction(5, 1000)
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
    first five good q, or None."""
    seen, delta = 0, localdata.discriminant(a, b)
    for q in arith.primes_in(5, 1000):
        if q == p or delta % q == 0:
            continue
        if ffcurve.count_points(q, a % q, b % q) % p:
            return q
        seen += 1
        if seen == survey.TORSION_CERT_PRIMES:
            return None


def _oracle_certified(a, b, p):
    return _certifying_prime(a, b, p) is not None


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
    return {"pairs": survey.count_pairs(x), **buckets}, strict, kodaira, euler, valuations


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


@pytest.mark.parametrize("p, count", [(5, 3000), (7, 12000)])
def test_certificate_pool_holds_five_good_primes(p, count):
    """Pairs with 8 or 9 bad primes among the first 12 of the pool still
    meet their first five good primes inside the pool sized for the box,
    including pairs that no good prime among those 12 certifies."""
    x = 2**61
    pool = survey._certificate_pool(p, HeightWindow.from_height(x).max_abs_discriminant)
    pairs, q12 = _crowded_pairs(p, x, count)
    verdicts = [_certifying_prime(a, b, p) for a, b in pairs]
    late = [i for i, q in enumerate(verdicts) if q is None or q > q12]
    assert len(late) >= 5
    sample = late + list(range(300))
    a, b = np.array([pairs[i] for i in sample]).T
    assert survey._certify(a, b, pool).tolist() == [verdicts[i] is not None for i in sample]


@pytest.mark.parametrize("p, x, length", [(7, 10**6, 10), (7, 10**8, 12), (7, 10**9, 12),
                                          (5, 10**8, 11), (7, 2**62 - 1, 18)])
def test_certificate_pool_is_shortest(p, x, length):
    bound = HeightWindow.from_height(x).max_abs_discriminant
    qs = [q for q, _ in survey._certificate_pool(p, bound)]
    assert qs == [q for q in arith.primes_in(5, qs[-1]) if q != p]
    assert len(qs) == length
    lead = len(qs) - survey.TORSION_CERT_PRIMES + 1
    assert math.prod(qs[:lead - 1]) <= bound < math.prod(qs[:lead])


def test_classified_csv_pinned():
    """The slow classify path's CSV bytes at x = 10^5, p = 7, pinned so
    that any change to its per-curve local data shows."""
    buf = io.StringIO()
    assert survey.write_csv(survey.enumerate_curves(10**5, p=7), buf) == 7139
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        "31d9b12d7b07fa5e53a7c76c1c2236477bd64a48d330b2a0f09a6bcd65e65d3f"


def test_survey_csv_matches_oracle():
    """The block path writes the oracle's bytes, over boxes that together
    hold every kind of row it must get right."""
    kinds = Counter()
    for p in (5, 7, 11, 13):
        for x in (10**3, 10**4, 10**5):
            oracle, fast = io.StringIO(), io.StringIO()
            records = list(survey.enumerate_curves(x, p))
            assert survey.write_survey_csv(x, p, fast) == survey.write_csv(records, oracle)
            assert fast.getvalue() == oracle.getvalue()
            trial_limit = math.isqrt(HeightWindow.from_height(x).max_abs_discriminant)
            for r in records:
                if r.kodaira is None:
                    continue
                kinds["additive"] += any(not kt.is_multiplicative for _, kt in r.kodaira)
                kinds["factor above trial limit"] += any(ell > trial_limit for ell, _ in r.kodaira)
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
    (7, 10**8): ((19, 2284, 2249362, 1499002, 107194, 91516, 16, 551634),
                 {0: 490310, 1: 61323, 2: 1}, {0: 490304, 1: 61329, 2: 1},
                 {0: 490310, 1: 3, 2: 61320, 3: 1}),
    # recorded from the flat-block pass that the tiled one replaced
    (11, 10**8): ((19, 2284, 2249362, 1499002, 68214, 124596, 0, 557550),
                  {0: 526575, 1: 30975}, {0: 526575, 1: 30975}, {0: 526575, 2: 30975}),
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
    assert census.counts == {"pairs": survey.count_pairs(x),
                             **dict(zip(survey._BUCKETS, buckets))}
    assert (census.strict_hist, census.kodaira_hist, census.euler_hist) == (strict, kodaira, euler)


@pytest.mark.parametrize("p", [7, 11])
def test_growth_census_pinned_valuations(p):
    assert survey._growth_census(p, 10**8, (5, 7)).valuation_hists == PINNED_VALUATIONS


def test_census_divides_only_where_ell_divides_delta(monkeypatch):
    """v_ell(delta) is worked out only on the pairs that the residue tables
    say ell divides (about 1/ell of them); the others go straight to v = 0.
    The flat pass divided all 4,363,324 curves, once for each of 5 and 7."""
    entries = []
    valuations = survey._valuations

    def counted(values, ell):
        entries.append(len(values))
        return valuations(values, ell)

    monkeypatch.setattr(survey, "_valuations", counted)
    census = survey._growth_census.__wrapped__(11, 10**8, (5, 7))
    assert census.valuation_hists == PINNED_VALUATIONS
    assert sum(entries) <= 700_000


@pytest.mark.parametrize("p", [5, 7, 11])
def test_tile_boundaries(p, monkeypatch):
    """Tiles of 1 and 7 pairs and of one row's width minus and plus one
    split rows at every place; the census and the CSV still match the slow
    path, bucket for bucket and byte for byte."""
    x = 10**4
    ells = tuple(ell for ell in (5, 7) if ell != p)
    buckets, strict, kodaira, euler, valuations = _slow_census(p, x)
    oracle = io.StringIO()
    survey.write_csv(survey.enumerate_curves(x, p), oracle)
    width = 2 * HeightWindow.from_height(x).b_max + 1
    for cap in (1, 7, width - 1, width + 1):
        monkeypatch.setattr(survey, "_BLOCK_PAIRS", cap)
        monkeypatch.setattr(survey, "_CSV_BLOCK_ROWS", cap)
        census = survey._growth_census.__wrapped__(p, x, ells)
        assert census.counts == buckets
        assert (census.strict_hist, census.kodaira_hist, census.euler_hist) == (strict, kodaira, euler)
        assert census.valuation_hists == {ell: valuations[ell] for ell in ells}
        fast = io.StringIO()
        survey.write_survey_csv(x, p, fast)
        assert fast.getvalue() == oracle.getvalue()


def test_split_rows_keep_the_pinned_census(monkeypatch):
    """Tiles of one row's width minus one, where every growth branch fires:
    the tables are read row by row, not from gathered columns."""
    x = 10**7
    monkeypatch.setattr(survey, "_BLOCK_PAIRS", 2 * HeightWindow.from_height(x).b_max)
    buckets, strict, kodaira, euler = PINNED_CENSUS[5, x]
    census = survey._growth_census.__wrapped__(5, x)
    assert census.counts == {"pairs": survey.count_pairs(x), **dict(zip(survey._BUCKETS, buckets))}
    assert (census.strict_hist, census.kodaira_hist, census.euler_hist) == (strict, kodaira, euler)


def _record_gathers(monkeypatch):
    """Wrap survey._gather: the list it returns collects each store of
    pre-gathered columns passed in, and the bytes of each gathered tile."""
    stores, tile_bytes = [], []
    gather = survey._gather

    def recorded(table, a, b, columns):
        values = gather(table, a, b, columns)
        if not any(store is columns for store in stores):
            stores.append(columns)
        tile_bytes.append(values.nbytes)
        return values

    monkeypatch.setattr(survey, "_gather", recorded)
    return stores, tile_bytes


def test_column_tables_are_bounded(monkeypatch):
    """At x = 10^8 whole rows make a tile, and the census gathers each
    table's columns once: together under 2 MB."""
    stores, _ = _record_gathers(monkeypatch)
    survey._growth_census.__wrapped__(7, 10**8, (5,))
    held = [table.nbytes for store in stores for table in store.values()]
    assert len(held) == 1 + 1 + 5 + 3  # ell = 5; the codes, 5 certificate and 3 growth tables
    assert sum(held) <= 2 * 2**20


def test_tile_memory_at_the_height_limit(monkeypatch):
    """At x = 2^62 - 1 a row holds about 8.3e8 pairs.  The first tile is
    part of one, within the cap; the census gathers no columns ahead there,
    so each table it reads for the tile holds at most the tile, and all 18
    certificate tables together hold under 2 MB.  Only that tile is drawn."""
    win = HeightWindow.from_height(2**62 - 1)
    assert 2 * win.b_max + 1 > 8 * 10**8
    a, b, delta, minimal = next(survey._blocks(win, survey._BLOCK_PAIRS))
    assert len(a) == 1 and delta.shape == minimal.shape == (1, survey._BLOCK_PAIRS)
    pool = survey._certificate_pool(7, win.max_abs_discriminant)
    assert len(pool) == 18  # read on the sub-grid, 3 not dividing a: the next row
    tables = [survey._gather(table, a + 1, b[b % 2 != 0], None) for _, table in pool]
    assert sum(t.nbytes for t in tables) <= 2 * 2**20
    blocks = survey._blocks
    monkeypatch.setattr(survey, "_blocks", lambda win, cap: itertools.islice(blocks(win, cap), 1))
    stores, tile_bytes = _record_gathers(monkeypatch)
    census = survey._growth_census.__wrapped__(7, 2**62 - 1, (5,))
    assert census.counts["curves"] <= survey._BLOCK_PAIRS
    assert stores == [None] and max(tile_bytes) <= survey._BLOCK_PAIRS
    assert sum(tile_bytes) <= 2 * 2**20


def test_growth_tables_are_capped_before_the_pass(monkeypatch):
    """At p = 5 the growth candidates' reduction tables pass 128 MB between
    x = 2e15 and 3e15 (9.4 GB at x = 2^62 - 1): such a survey is refused
    before any table or tile is built."""
    def no_work(*args):
        raise AssertionError("the census built tables or tiles before its cap check")

    monkeypatch.setattr(survey, "_reduction_table", no_work)
    monkeypatch.setattr(survey, "_blocks", no_work)
    for x in (3 * 10**15, 2**62 - 1):
        with pytest.raises(DomainError, match="128 MB"):
            survey._growth_census.__wrapped__(5, x)


def test_kodaira_view_needs_its_ell():
    census = survey._growth_census(7, 10**4, (5,))
    with pytest.raises(DomainError, match=r"ell = 11 .*\(5,\)"):
        survey.empirical_kodaira_density(census, 11, 1)


def test_reduction_table_matches_the_split_rule():
    for ell in arith.primes_in(5, 199):
        table = survey._reduction_table(ell)
        bad = [(am, bm) for am, bm in itertools.product(range(ell), repeat=2)
               if (4 * am**3 + 27 * bm**2) % ell == 0]
        assert bad[0] == (0, 0) and table[0, 0] == 0 and len(bad) == ell
        assert np.count_nonzero(table == 1) == ell * ell - ell
        for am, bm in bad[1:]:
            assert table[am, bm] == 2 + localdata._split_from_residues(am, bm, ell)


def test_reduction_table_reads_the_character_table(monkeypatch):
    """The table is one numpy broadcast over chi mod ell, not a call per pair."""
    def per_pair(*args):
        raise AssertionError("the reduction table called the per-pair split rule")

    monkeypatch.setattr(localdata, "_split_from_residues", per_pair)
    table = survey._reduction_table(101)
    assert table.shape == (101, 101) and np.count_nonzero(table >= 2) == 100


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
    mod = 5**2
    grid = np.arange(mod * mod, dtype=np.int64)
    a, b = grid // mod, grid % mod
    frac = Fraction(int(((a % 5 == 0) & (b % 25 == 0)).sum()), mod * mod)
    assert verify.counted_box_measure(5, 1, 2) == frac == Fraction(1, 125)


def test_csv_sink():
    buf = io.StringIO()
    rows = survey.write_csv(survey.enumerate_curves(10**3, p=7), buf)
    text = buf.getvalue().splitlines()
    assert text[0] == ",".join(survey.CSV_COLUMNS)
    assert rows == survey.count_pairs(10**3) == len(text) - 1
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
