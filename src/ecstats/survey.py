"""Census of curves ordered by naive height, and the CSV of their local data.

The height window H(a, b) = max(4|a|^3, 27 b^2) <= x is exactly the box
|a| <= floor((x/4)^(1/3)), |b| <= floor((x/27)^(1/2)), so one numpy pass walks
it in tiles of rows a x columns b and reads every decision but v_ell(delta)
from tables indexed by (a mod m, b mod m); |delta| <= 2x must fit in int64, so
x < 2^62.  The empirical_* views read the census they are given, so a survey
runs it once.  write_survey_csv writes one row per pair from the same tiles;
enumerate_curves, streaming the pairs one by one, is its test oracle.

The growth census classifies each minimal nonsingular curve at a fixed
prime p of good reduction.  Curves with bad reduction at 2 or 3 go into a
separate bucket (local data there is out of scope), as do curves whose
trivial p-torsion cannot be certified for p in {5, 7} (for p >= 11 torsion
is impossible).  The certificate: p does not divide gcd of #E(F_q) over the
first five good primes q >= 5, q != p — torsion injects into every such
reduction, so a single nondivisible count is a proof.

Two growth statistics are tracked side by side: the strict count (p divides
the Tamagawa number, i.e. split multiplicative type I_m with p | m) and the
Kodaira-only count (type I_m with p | m, split or not), plus the anomalous
flag at p; and the Euler-term valuation v_p(prod c_ell^(p) * alpha_p^2).
"""

from __future__ import annotations

import contextlib
import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import bounds, density, ffcurve, localdata
from .ffcurve import PointClass
from ._version import __version__
from .arith import check_prime, integer_nth_root, next_prime, sieve_primes
from .errors import DomainError
from .intervals import QInterval

TORSION_CERT_PRIMES = 5  # good reductions examined by the torsion certificate
MAX_SURVEY_HEIGHT = 1 << 62  # |delta| <= 2x stays inside int64 below this
_BLOCK_PAIRS = 1 << 16  # pairs per tile of the height-box pass
_CSV_BLOCK_ROWS = 1 << 12  # pairs per tile of CSV rows, held as Python objects
_BUCKETS = ("singular", "nonminimal", "curves", "bad_at_2_or_3", "bad_at_p",
            "supersingular_at_p", "torsion_uncertified", "classified")


@dataclass(frozen=True)
class HeightWindow:
    """The exact box of integer pairs with naive height <= x."""

    x: int
    a_max: int
    b_max: int

    @classmethod
    def from_height(cls, x: int) -> "HeightWindow":
        if x < 0:
            raise DomainError("height bound must be nonnegative")
        return cls(x, integer_nth_root(x // 4, 3), math.isqrt(x // 27))

    @property
    def pair_count(self) -> int:
        return (2 * self.a_max + 1) * (2 * self.b_max + 1)

    @property
    def max_abs_discriminant(self) -> int:
        return 4 * self.a_max**3 + 27 * self.b_max**2

    def minimality_primes(self) -> tuple[tuple[int, int], ...]:
        """(ell^4, ell^6) for every prime that could witness non-minimality."""
        bound = max(integer_nth_root(self.a_max, 4), integer_nth_root(self.b_max, 6))
        return tuple((ell**4, ell**6) for ell in sieve_primes(bound))


def count_pairs(x: int) -> int:
    """#{(a, b) : H <= x}; the box bound is exact."""
    return HeightWindow.from_height(x).pair_count


def _is_minimal_pair(a: int, b: int, min_primes) -> bool:
    if a == 0 and b == 0:
        return False
    for p4, p6 in min_primes:
        if a % p4 == 0 and b % p6 == 0:
            return False
    return True


@dataclass(frozen=True)
class SurveyRecord:
    a: int
    b: int
    height: int
    delta: int
    minimal: bool
    bad_small: bool | None = None       # 2 or 3 divides delta
    kodaira: tuple[tuple[int, localdata.KodairaType], ...] | None = None
    ordinary: bool | None = None        # good ordinary at the survey prime
    anomalous: bool | None = None
    growth_count: int | None = None     # strict Tamagawa/anomaly total at p
    euler_valuation: int | None = None  # v_p of the computable Euler term

    @property
    def nonsingular(self) -> bool:
        return self.delta != 0


def _classify_record(rec: SurveyRecord, p: int) -> SurveyRecord:
    """Slow reference classification via factorization and the local ops."""
    if not rec.nonsingular or not rec.minimal:
        return rec
    delta = rec.delta
    bad_small = delta % 2 == 0 or delta % 3 == 0
    if bad_small or delta % p == 0:
        out = dict(kodaira=localdata.kodaira_types(rec.a, rec.b))
    else:
        # one factorization and one point count at p give every field
        growth = localdata.tamagawa_anomaly_count(rec.a, rec.b, p)
        out = dict(kodaira=growth.kodaira,
                   ordinary=growth.kind is not PointClass.SUPERSINGULAR,
                   anomalous=bool(growth.anomalous_flag), growth_count=growth.total,
                   euler_valuation=growth.euler_valuation)
    return SurveyRecord(rec.a, rec.b, rec.height, delta, rec.minimal, bad_small, **out)


def enumerate_curves(x: int, p: int | None = None) -> Iterator[SurveyRecord]:
    """Yield every pair in the height window exactly once.

    With p given, the heavier fields (Kodaira types at the bad primes >= 5
    and the data at p) are filled in per curve via the generic factorization
    path; this is the test oracle of write_survey_csv.
    """
    win = HeightWindow.from_height(x)
    min_primes = win.minimality_primes()
    for a in range(-win.a_max, win.a_max + 1):
        four_a3 = 4 * a * a * a
        for b in range(-win.b_max, win.b_max + 1):
            delta = four_a3 + 27 * b * b
            rec = SurveyRecord(a, b, localdata.naive_height(a, b), delta,
                               _is_minimal_pair(a, b, min_primes))
            yield rec if p is None else _classify_record(rec, p)


@dataclass(frozen=True)
class SurveySummary:
    kind: str
    x: int
    counts: dict
    empirical: Fraction | None
    theoretical: QInterval | None
    p: int | None = None
    ell: int | None = None
    n: int | None = None
    extras: dict = field(default_factory=dict)

    @property
    def absolute_gap(self) -> float | None:
        """Distance from the empirical ratio to the theoretical enclosure."""
        if self.empirical is None or self.theoretical is None:
            return None
        if self.theoretical.contains(self.empirical):
            return 0.0
        gap = max(self.theoretical.lo - self.empirical, self.empirical - self.theoretical.hi)
        return float(gap)

    def to_json(self) -> dict:
        out = {
            "schema_version": 2,
            "kind": self.kind,
            "version": __version__,
            "x": self.x,
            "p": self.p,
            "ell": self.ell,
            "n": self.n,
            "counts": dict(self.counts),
            "empirical": None,
            "theoretical": None,
            "absolute_gap": self.absolute_gap,
            "extras": {k: None if v is None else str(v) for k, v in self.extras.items()},
        }
        if self.empirical is not None:
            out["empirical"] = {"fraction": str(self.empirical), "decimal": float(self.empirical)}
        if self.theoretical is not None:
            out["theoretical"] = self.theoretical.to_json()
        return out


def empirical_minimal_density(census: GrowthCensus) -> SurveySummary:
    """Fraction of pairs in the census window that are minimal and
    nonsingular, against the enclosure of the everywhere-minimal density."""
    counts = {k: census.counts[k] for k in ("pairs", *_BUCKETS[:3])}
    theoretical = density.congruence_density(
        density.CongruenceDatum(minimal_elsewhere=True))
    return SurveySummary("minimal_density", census.x, counts,
                         Fraction(counts["curves"], counts["pairs"]), theoretical)


def _check_view_n(n: int) -> None:
    if n < 1:
        raise DomainError("n must be >= 1")


def empirical_kodaira_density(census: GrowthCensus, ell: int, n: int) -> SurveySummary:
    """Fraction of minimal nonsingular curves with type I_n at ell, against
    the exact prediction density_In(ell, n) / minimal_density(ell).  The
    census must have been built with ell among its `ells`."""
    _check_view_n(n)
    if ell not in census.valuation_hists:
        raise DomainError(f"ell = {ell} is not in the census ells {tuple(census.valuation_hists)}")
    curves = census.counts["curves"]
    hits = census.valuation_hists[ell].get(n, 0)
    theoretical = QInterval.point(density.density_In(ell, n) / density.minimal_density(ell))
    counts = {"pairs": census.counts["pairs"], "curves": curves, "type_In_at_ell": hits}
    return SurveySummary("kodaira_density", census.x, counts,
                         Fraction(hits, curves) if curves else None,
                         theoretical, ell=ell, n=n)


def _certificate_pool(p: int, max_abs_delta: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Per-q tables of #E(F_q) (0 singular, 1 divisible by p, 2 certifying)
    for the torsion certificate, over the primes q >= 5, q != p, in order.

    The pool grows until the product of its first len - TORSION_CERT_PRIMES + 1
    primes exceeds max_abs_delta.  A nonzero delta with |delta| <= max_abs_delta
    then has at most len - TORSION_CERT_PRIMES pool primes as factors, so every
    pair finds its first TORSION_CERT_PRIMES good primes inside the pool.
    """
    qs, q = [], 5
    while len(qs) < TORSION_CERT_PRIMES or math.prod(qs[:1 - TORSION_CERT_PRIMES]) <= max_abs_delta:
        if q != p:
            qs.append(q)
        q = next_prime(q)
    tables = map(ffcurve.point_count_table, qs)
    return tuple((q, np.uint8(np.where(t < 0, 0, 1 + (t % p > 0)))) for q, t in zip(qs, tables))


@dataclass(frozen=True)
class GrowthCensus:
    p: int
    x: int
    counts: dict
    strict_hist: dict
    kodaira_hist: dict
    euler_hist: dict
    valuation_hists: dict  # ell -> histogram of v_ell(delta), (a, b) != (0, 0) mod ell

    def tail(self, hist: dict, n: int) -> int:
        return sum(c for v, c in hist.items() if v >= n)


def _tally(hist: Counter, values, zeros: int = 0) -> None:
    counts = np.bincount(values, minlength=1)
    counts[0] += zeros
    hist.update({v: c for v, c in enumerate(counts.tolist()) if c})


def _valuations(values, ell: int):
    """v_ell of each entry of an int64 array of nonzero integers.  Each
    division step touches only the entries that ell still divides."""
    v = np.zeros(len(values), dtype=np.int64)
    hit, rest = np.arange(len(values)), values
    while (keep := rest % ell == 0).any():
        hit, rest = hit[keep], rest[keep] // ell
        v[hit] += 1
    return v


def _reduction_table(ell: int):
    """Reduction types mod ell, indexed [a, b]: 0 at (0, 0), 1 good, 2 nonsplit, 3 split.

    A nonzero pair with ell | delta has a, b != 0 mod ell.  The node's slopes
    are +-sqrt(3e) with 3e = -9b/2a, so it splits exactly when chi(-2a) == chi(b).
    """
    chi, r = ffcurve.chi_table(ell), np.arange(ell, dtype=np.int64)
    singular = (4 * r**3 % ell)[:, None] == -27 * r * r % ell
    table = np.where(singular, (chi[-2 * r % ell, None] == chi) + np.uint8(2), np.uint8(1))
    table[0, 0] = 0
    return table


def _gather(table, a, b, columns):
    """table[a % m, b % m] on the tile a x b.  Tiles of whole rows share b:
    unless None, `columns` keeps the table's columns over b, so a tile copies rows."""
    m = len(table)
    if columns is None:
        return np.take(table[a % m], b % m, axis=1)
    if id(table) not in columns:  # the census holds every table it reads
        columns[id(table)] = table[:, b % m]
    return columns[id(table)][a % m]


def _certify(a, b, pool) -> np.ndarray:
    """Torsion certificate per pair: one sweep over a pool sized by
    _certificate_pool for the pairs' window."""
    certified = np.zeros(len(a), dtype=bool)
    good_seen = np.zeros(len(a), dtype=np.int64)
    for q, table in pool:
        r = table[a % q, b % q]
        good = ~certified & (good_seen < TORSION_CERT_PRIMES) & (r != 0)
        good_seen += good
        certified |= good & (r == 2)
    return certified


def _survey_setup(p: int, x: int, ells: tuple[int, ...] = ()):
    """The height box of a survey at p, checked before any pass over it, the
    class codes at p, a reduction table for each prime in `ells` and each
    prime that can add to the growth, and the latter primes in order."""
    for prime in (p, *ells):
        check_prime(prime, 5)
    if x >= MAX_SURVEY_HEIGHT:
        raise DomainError(f"height bound x = {x} must be below 2^62, so that "
                          "|delta| <= 2x fits in int64")
    win = HeightWindow.from_height(x)
    codes = ffcurve.class_code_table(p)
    # only primes with ell^p <= |delta| can carry a Tamagawa number divisible
    # by p (split I_m needs p | m = v_ell(delta)); each table takes ell^2 bytes
    primes = set(sieve_primes(integer_nth_root(win.max_abs_discriminant, p))) - {2, 3, p}
    if sum(ell * ell for ell in primes) > 1 << 27:
        raise DomainError(f"x = {x} at p = {p} needs over 128 MB of growth-candidate tables")
    reduction = {ell: _reduction_table(ell) for ell in sorted(primes.union(ells))}
    return win, codes, reduction, sorted(primes)


def _blocks(win: HeightWindow, cap: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Row-major tiles a x b of the box, with delta and the minimal flags as 2-D
    arrays: whole rows of at most `cap` pairs, or parts of a longer row."""
    min_primes = win.minimality_primes()
    rows, cols = max(1, cap // (2 * win.b_max + 1)), min(cap, 2 * win.b_max + 1)
    for a0 in range(-win.a_max, win.a_max + 1, rows):
        a = np.arange(a0, min(a0 + rows, win.a_max + 1), dtype=np.int64)
        for b0 in range(-win.b_max, win.b_max + 1, cols):
            b = np.arange(b0, min(b0 + cols, win.b_max + 1), dtype=np.int64)
            minimal = np.ones((len(a), len(b)), dtype=bool)
            for p4, p6 in ((MAX_SURVEY_HEIGHT,) * 2, *min_primes):  # the first marks (0, 0)
                minimal[a % p4 == 0] &= b % p6 != 0
            yield a, b, 4 * a[:, None] ** 3 + 27 * b * b, minimal


def _growth(delta, code, p: int, reductions):
    """Strict count, Kodaira-only count and Euler valuation of the growth at p,
    from flat arrays of class codes at p and of _reduction_table codes per ell."""
    g_strict = (code == PointClass.ANOMALOUS).astype(np.int64)
    g_kodaira = g_strict.copy()
    euler_v = 2 * g_strict
    for ell, reduction in reductions:
        hit = np.flatnonzero(reduction >= 2)
        hit = hit[delta[hit] % ell**p == 0]
        v = _valuations(delta[hit], ell)
        hit, v = hit[v % p == 0], v[v % p == 0]
        g_kodaira[hit] += 1
        split = reduction[hit] == 3
        g_strict[hit[split]] += 1
        euler_v[hit[split]] += _valuations(v[split], p)
    return g_strict, g_kodaira, euler_v


@lru_cache(maxsize=8)
def _growth_census(p: int, x: int, ells: tuple[int, ...] = ()) -> GrowthCensus:
    """The one pass over the height box at the prime p, tile by tile.

    Every pair lands in one bucket: singular, nonminimal or curve.  For each
    ell in `ells` the curves not == (0, 0) mod ell are tallied by v_ell(delta).
    The curves go on into bad_at_2_or_3, bad_at_p, supersingular_at_p,
    torsion_uncertified or classified, and the classified ones into the
    strict, Kodaira-only and Euler histograms.
    """
    win, codes, reduction, candidates = _survey_setup(p, x, ells)
    counts = {"pairs": win.pair_count, **dict.fromkeys(_BUCKETS, 0)}
    cert_pool = _certificate_pool(p, win.max_abs_discriminant) if p in (5, 7) else ()
    valuation_hists = {ell: Counter() for ell in ells}
    hists = Counter(), Counter(), Counter()  # strict, Kodaira-only, Euler
    first = [t for _, t in cert_pool[:TORSION_CERT_PRIMES]]
    # tiles of whole rows share their b: gather each table's columns once, if all fit in 2 MB
    tables = (codes, *reduction.values(), *first)
    whole = 2 * win.b_max < min(_BLOCK_PAIRS, (1 << 21) // sum(map(len, tables)))
    box_cols, grid_cols = ({}, {}) if whole else (None, None)
    for a, b, delta, minimal in _blocks(win, _BLOCK_PAIRS):
        singular, curve = delta == 0, minimal & (delta != 0)
        for name, mask in zip(_BUCKETS, (singular, ~(minimal | singular), curve)):
            counts[name] += int(np.count_nonzero(mask))
        for ell in ells:  # only the pairs with ell | delta have v_ell(delta) > 0
            red = _gather(reduction[ell], a, b, box_cols)
            _tally(valuation_hists[ell], _valuations(delta[curve & (red >= 2)], ell),
                   np.count_nonzero(curve & (red == 1)))
        # delta == b mod 2, delta == a mod 3: the curves good at 2 and 3 are a sub-grid
        grid = np.ix_(a % 3 != 0, b % 2 != 0)
        a, b, delta, curve = a[grid[0].ravel()], b[grid[1].ravel()], delta[grid], minimal[grid]
        code = _gather(codes, a, b, grid_cols)
        for name, c in zip(_BUCKETS[4:6], (PointClass.SINGULAR, PointClass.SUPERSINGULAR)):
            counts[name] += int(np.count_nonzero(curve & (code == c)))
        keep = curve & ((code == PointClass.ORDINARY) | (code == PointClass.ANOMALOUS))
        if cert_pool:  # the first five pool primes are among any pair's first five good ones
            i, j = np.nonzero(keep & np.all([_gather(t, a, b, grid_cols) != 2 for t in first], 0))
            doubt = ~_certify(a[i], b[j], cert_pool)
            keep[i[doubt], j[doubt]] = False
            counts["torsion_uncertified"] += int(np.count_nonzero(doubt))
        counts["classified"] += int(np.count_nonzero(keep))
        reductions = ((ell, _gather(reduction[ell], a, b, grid_cols).ravel()) for ell in candidates)
        for hist, values in zip(hists, _growth(delta.ravel(), code.ravel(), p, reductions)):
            _tally(hist, values[keep.ravel()])
    counts["bad_at_2_or_3"] = counts["curves"] - sum(counts[k] for k in _BUCKETS[4:])
    return GrowthCensus(p, x, counts, *hists, valuation_hists)


def empirical_selmer_growth(census: GrowthCensus, n: int) -> SurveySummary:
    """Fraction of classified curves whose growth invariant at p is >= n.

    The denominator is the classified set: minimal, nonsingular, good at 2,
    3 and p, ordinary at p, torsion-certified.  The headline ratio uses the
    strict predicate (p | c_ell enforced through the split condition); the
    Kodaira-only variant is counted beside it.  The certified lower bound
    for the same (p, n) is attached for comparison; the bound is one-sided,
    so the empirical ratio is expected to sit above its .lo endpoint.
    """
    _check_view_n(n)
    hits_strict = census.tail(census.strict_hist, n)
    hits_kodaira = census.tail(census.kodaira_hist, n)
    classified = census.counts["classified"]
    report = bounds.selmer_growth_bound(census.p, n)
    counts = {**census.counts, "growth_ge_n_strict": hits_strict,
              "growth_ge_n_kodaira_only": hits_kodaira}
    strict = Fraction(hits_strict, classified) if classified else None
    extras = {
        "predicate": "strict",
        "empirical_strict": strict,
        "empirical_kodaira_only": Fraction(hits_kodaira, classified) if classified else None,
    }
    return SurveySummary("selmer_growth", census.x, counts, strict,
                         report.value, p=census.p, n=n, extras=extras)


def empirical_euler_divisibility(census: GrowthCensus, n: int) -> SurveySummary:
    """Fraction of classified curves with v_p(Euler term) >= n, with the
    corresponding certified lower bound attached."""
    _check_view_n(n)
    hits = census.tail(census.euler_hist, n)
    classified = census.counts["classified"]
    report = bounds.euler_divisibility_bound(census.p, n)
    counts = {**census.counts, "euler_valuation_ge_n": hits}
    return SurveySummary("euler_divisibility", census.x, counts,
                         Fraction(hits, classified) if classified else None,
                         report.value, p=census.p, n=n)


# ---------------------------------------------------------------------------
# CSV sink

CSV_COLUMNS = ("a", "b", "height", "minimal", "delta", "kodaira",
               "ordinary", "anomalous", "growth_count", "euler_valuation")


def _record_fields(rec: SurveyRecord) -> tuple:
    kod = None if rec.kodaira is None else ";".join(f"{ell}:{kt}" for ell, kt in rec.kodaira)
    return (rec.a, rec.b, rec.height, int(rec.minimal), rec.delta, kod,
            *(None if flag is None else int(flag) for flag in (rec.ordinary, rec.anomalous)),
            rec.growth_count, rec.euler_valuation)


def _write_rows(blocks: Iterable[list[tuple]], path) -> int:
    """Write the header, then blocks of rows of CSV_COLUMNS fields (None
    prints empty); returns the number of rows written."""
    rows = 0
    opened = isinstance(path, (str, bytes))
    with open(path, "w", newline="") if opened else contextlib.nullcontext(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for block in blocks:
            writer.writerows(block)
            rows += len(block)
    return rows


def write_csv(records: Sequence[SurveyRecord] | Iterator[SurveyRecord], path) -> int:
    """Write survey records; returns the number of rows written."""
    return _write_rows(([_record_fields(rec)] for rec in records), path)


def _kodaira_fields(a, b, delta, primes: tuple[int, ...]) -> list[str]:
    """The kodaira field of each curve: `ell:I<v>`, or `ell:additive` where
    ell divides a and b, for each prime ell >= 5 dividing delta, in order.
    Trial division by `primes`, all primes up to isqrt(max |delta|), leaves
    1 or a prime above them all, dividing delta once: type I1."""
    fields = [[] for _ in range(len(delta))]
    rest = np.abs(delta)
    live = np.arange(len(delta))
    for i, ell in enumerate(primes):
        if i >= 2 and i % 4 == 0:  # rows with a cofactor below ell^2 (1 or a prime) are done
            live = live[rest[live] >= ell * ell]
        hit = live[rest[live] % ell == 0]
        if not hit.size:
            continue
        v = _valuations(rest[hit], ell)
        rest[hit] //= ell**v
        if ell >= 5:
            additive = (a[hit] % ell == 0) & (b[hit] % ell == 0)
            for row, n, add in zip(hit.tolist(), v.tolist(), additive.tolist()):
                fields[row].append(f"{ell}:additive" if add else f"{ell}:I{n}")
    for row in np.flatnonzero(rest >= 5).tolist():
        fields[row].append(f"{rest[row]}:I1")
    return [";".join(f) for f in fields]


def _survey_rows(x: int, p: int) -> Iterator[list[tuple]]:
    """The fields write_csv writes for enumerate_curves(x, p), one list of
    rows per tile of the height box, read row-major."""
    win, codes, reduction, candidates = _survey_setup(p, x)
    primes = sieve_primes(math.isqrt(win.max_abs_discriminant))
    for a, b, delta, minimal in _blocks(win, _CSV_BLOCK_ROWS):
        a, b = np.repeat(a, len(b)), np.tile(b, len(a))
        delta, minimal = delta.ravel(), minimal.ravel()
        curve = np.flatnonzero(minimal & (delta != 0))
        local = curve[(delta[curve] % 2 != 0) & (delta[curve] % 3 != 0)]
        code = codes[a[local] % p, b[local] % p]
        good = code != PointClass.SINGULAR
        local, code = local[good], code[good]
        reductions = ((ell, reduction[ell][a[local] % ell, b[local] % ell]) for ell in candidates)
        g_strict, _, euler_v = _growth(delta[local], code, p, reductions)
        kodaira, *at_p = (np.full(len(a), None, dtype=object) for _ in range(5))
        kodaira[curve] = _kodaira_fields(a[curve], b[curve], delta[curve], primes)
        for column, values in zip(at_p, (code != PointClass.SUPERSINGULAR,
                                         code == PointClass.ANOMALOUS, g_strict, euler_v)):
            column[local] = values.astype(np.int64)
        height = np.maximum(4 * np.abs(a) ** 3, 27 * b * b)
        yield list(zip(a.tolist(), b.tolist(), height.tolist(), minimal.astype(np.int64).tolist(),
                       delta.tolist(), *(column.tolist() for column in (kodaira, *at_p))))


def write_survey_csv(x: int, p: int, path) -> int:
    """Write the bytes of write_csv(enumerate_curves(x, p), path) from the
    tiles of the height box, streamed tile by tile; returns the number of
    rows written."""
    return _write_rows(_survey_rows(x, p), path)
