"""Census of curves ordered by naive height, and the CSV of their local data.

The height window H(a, b) = max(4|a|^3, 27 b^2) <= x is exactly the box
|a| <= floor((x/4)^(1/3)), |b| <= floor((x/27)^(1/2)); |delta| <= 2x must fit
in int64, so x < 2^62.  The counts that do not depend on p are closed forms:
the singular pairs are (-3t^2, +-2t^3), a Möbius sum over squarefree m of the
sub-boxes (a_max // m^4, b_max // m^6) counts the minimal curves, and along a
row a with ell not dividing a, ell^k | delta exactly on the columns b ==
+-r_k mod ell^k, the Hensel lifts of one root b0 mod ell, so the v_ell(delta)
histograms are sums of progression lengths.  The buckets at p are lattice
counts too: on the sub-grid good at 2 and 3 (3 does not divide a, b odd) the
class at p reads (a mod p, b mod p), so each Möbius term is a product of row
and column counts by residue.  The rest walks the box once, in bands of
rows: at p in {5, 7} the torsion certificate ANDs the columns of its first
five tables on tiles of a band (the one pass over pairs), and the pairs
where a prime ell != p adds to the growth, on progressions lifted to ell^p,
are listed and moved out of their base histogram bins.  The empirical_*
views read the census they are given, so a survey runs it once.
write_survey_csv writes one row per pair from the tiles of the box, its
Kodaira labels and growth columns from the progressions mod ell of the primes
ell >= 5 dividing delta.  enumerate_curves, pair by pair, is its test oracle.

The growth census classifies each minimal nonsingular curve at a prime p of
good reduction.  Curves bad at 2 or 3 go into a separate bucket (local data
there is out of scope), as do the curves at p in {5, 7} that miss the torsion
certificate p ∤ #E(F_q) at one of the first five good primes q >= 5, q != p
(torsion injects into each; for p >= 11 it is impossible).  The first 19
such q, all <= 79, hold five good ones for every curve: a nonzero |delta| <
2^63 has at most 14 prime factors >= 5, as 5 * 7 * ... * 59 > 2^63.  Every
list of primes here is read off arith.sieve_primes.  These are misses:
no curve of the sub-grid has a rational point of order p, as b odd gives
v_2(-16 delta) = 4, v_2(c_4) >= 4 and additive reduction at 2, so E(Q)[p]
embeds in a group of order at most 2 c_2 <= 8 (Silverman IV.3, VII.2,
VII.6).  The bucket stays only because bench/reference.json pins it.

Two growth statistics are tracked side by side: the strict count (p divides
the Tamagawa number, i.e. split multiplicative type I_m with p | m) and the
Kodaira-only count (type I_m with p | m, split or not), plus the anomalous
flag at p; and the Euler-term valuation v_p(prod c_ell^(p) * alpha_p^2).
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import bounds, density, ffcurve, localdata
from .ffcurve import PointClass
from ._version import __version__
from .arith import check_prime, integer_nth_root, sieve_primes
from .errors import DomainError
from .intervals import QInterval

TORSION_CERT_PRIMES = 5  # good reductions examined by the torsion certificate
MAX_SURVEY_HEIGHT = 1 << 62  # |delta| <= 2x stays inside int64 below this
_BLOCK_PAIRS = 1 << 16  # pairs per tile of the certificate pass, growth hits per group of rows
_CSV_BLOCK_ROWS = 1 << 12  # pairs per tile of CSV rows, joined into one string
_ROW_BAND = 1 << 13  # rows the census walks at once: certificate tiles, root lifts, growth hits
_MINIMAL = np.array(["0,", "1,"], dtype=object)
_BUCKETS = ("singular", "nonminimal", "curves", "bad_at_2_or_3", "bad_at_p",
            "supersingular_at_p", "torsion_uncertified", "classified")


class HeightWindow(NamedTuple):
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


def _is_minimal_pair(a: int, b: int, min_primes) -> bool:
    if a == 0 and b == 0:
        return False
    for p4, p6 in min_primes:
        if a % p4 == 0 and b % p6 == 0:
            return False
    return True


class SurveyRecord(NamedTuple):
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


class SurveySummary(NamedTuple):
    kind: str
    x: int
    counts: dict
    empirical: Fraction | None
    theoretical: QInterval | None
    p: int | None = None
    ell: int | None = None
    n: int | None = None
    extras: Mapping = MappingProxyType({})  # read-only, so one default serves every summary

    @property
    def absolute_gap(self) -> float | None:
        """Distance from the empirical ratio to the theoretical enclosure."""
        if self.empirical is None or self.theoretical is None:
            return None
        empirical, theoretical = self.empirical, self.theoretical
        return float(max(0, theoretical.lo - empirical, empirical - theoretical.hi))

    def to_json(self) -> dict:
        return {
            "schema_version": 3,
            "kind": self.kind,
            "version": __version__,
            "x": self.x,
            "p": self.p,
            "ell": self.ell,
            "n": self.n,
            "counts": dict(self.counts),
            "empirical": None if self.empirical is None else
            {"fraction": str(self.empirical), "decimal": float(self.empirical)},
            "theoretical": None if self.theoretical is None else self.theoretical.to_json(),
            "absolute_gap": self.absolute_gap,
            "extras": {k: None if v is None else str(v) for k, v in self.extras.items()},
        }


def empirical_minimal_density(census: GrowthCensus) -> SurveySummary:
    """Fraction of pairs in the census window that are minimal and
    nonsingular, against the enclosure of the everywhere-minimal density."""
    counts = {k: census.counts[k] for k in ("pairs", *_BUCKETS[:3])}
    theoretical = density.congruence_density(
        density.CongruenceDatum(minimal_elsewhere=True))
    return SurveySummary("minimal_density", census.x, counts,
                         Fraction(counts["curves"], counts["pairs"]), theoretical)


def _check_view_n(n: int) -> None:
    if not 1 <= n <= bounds.MAX_ORDER:
        raise DomainError("n must be >= 1 and within the cap 2^10")


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


@lru_cache(maxsize=32)
def _certificate_table(q: int, p: int) -> np.ndarray:
    """#E(F_q) for the torsion certificate at p, coded per residue pair [a, b]
    mod q as a read-only uint8 array: 0 singular, 1 divisible by p, 2 certifying."""
    counts = ffcurve.point_count_table(q)
    table = np.uint8(np.where(counts < 0, 0, 1 + (counts % p > 0)))
    table.setflags(write=False)
    return table


def _certificate_primes(p: int) -> tuple[int, ...]:
    """The first 19 primes q >= 5 other than p, in order (all <= 79).  A
    nonzero |delta| < 2^63 has at most 14 prime factors >= 5, as 5 * 7 * ... *
    59 > 2^63, so each curve meets TORSION_CERT_PRIMES good primes among them."""
    return tuple(q for q in sieve_primes(79)[2:] if q != p)[:19]


class GrowthCensus(NamedTuple):
    p: int
    x: int
    counts: dict
    strict_hist: dict
    kodaira_hist: dict
    euler_hist: dict
    valuation_hists: dict  # ell -> histogram of v_ell(delta), (a, b) != (0, 0) mod ell

    def tail(self, hist: dict, n: int) -> int:
        return sum(c for v, c in hist.items() if v >= n)


def _tally(hist: Counter, values) -> None:
    counts = np.bincount(values)
    hist.update({v: c for v, c in enumerate(counts.tolist()) if c})


def _valuations(values, ell):
    """v_ell of each entry of an int64 array of nonzero integers, for one ell or
    one ell per entry.  Each step divides only the entries their ell divides."""
    v = np.zeros(len(values), dtype=np.int64)
    hit, rest = np.arange(len(values)), values
    while (keep := rest % ell == 0).any():
        ell = ell[keep] if np.ndim(ell) else ell
        hit, rest = hit[keep], rest[keep] // ell
        v[hit] += 1
    return v


def _minimal(a, b, marks) -> np.ndarray:
    """The pairs (a, b), arrays broadcast together, that no (q^4, q^6) of
    `marks` divides."""
    minimal = np.ones(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=bool)
    for p4, p6 in marks:
        minimal &= (a % p4 != 0) | (b % p6 != 0)
    return minimal


def _certify(a, b, p: int) -> np.ndarray:
    """Torsion certificate per pair: walk the _certificate_primes of p until
    each pair is certified or has met TORSION_CERT_PRIMES good primes, which
    every curve does before the tuple ends."""
    certified = np.zeros(len(a), dtype=bool)
    live, seen = np.arange(len(a)), np.zeros(len(a), dtype=np.int64)
    for q in _certificate_primes(p):
        if not live.size:
            break
        r = _certificate_table(q, p)[a[live] % q, b[live] % q]
        certified[live[r == 2]] = True
        seen += r == 1
        walk = (r == 0) | (r == 1) & (seen < TORSION_CERT_PRIMES)
        live, seen = live[walk], seen[walk]
    return certified


def _survey_setup(p: int, x: int, ells: tuple[int, ...] = ()):
    """The height box of a survey at p, checked before any pass over it (with
    the primes in `ells`), the class codes at p, and the primes that can add
    to the growth, in order: split I_m needs p | m = v_ell(delta), so ell^p <=
    |delta|."""
    for prime in (p, *ells):
        check_prime(prime, 5)
    if x >= MAX_SURVEY_HEIGHT:
        raise DomainError(f"height bound x = {x} must be below 2^62, so that "
                          "|delta| <= 2x fits in int64")
    win = HeightWindow.from_height(x)
    primes = sieve_primes(integer_nth_root(win.max_abs_discriminant, p))
    return win, ffcurve.class_code_table(p), [ell for ell in primes if ell not in (2, 3, p)]


def _blocks(rows, columns: range, cap: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row-major tiles a x b of rows x columns: whole rows of at most `cap`
    pairs, or parts of a longer row."""
    step, cols = max(1, cap // len(columns)), min(cap, len(columns))
    for i in range(0, len(rows), step):
        for j in range(0, len(columns), cols):
            run = columns[j:j + cols]
            yield rows[i:i + step], np.arange(run.start, run.stop, run.step, dtype=np.int64)


def _in_doubt(rows, columns: range, tables, marks) -> Iterator[tuple]:
    """The pairs (a, b) of rows x columns, not divisible by any (q^4, q^6) of
    `marks`, where every boolean table[a % m, b % m] holds, run by run: runs
    of at most _BLOCK_PAIRS columns, each table's columns read once per run,
    and in each run _blocks of whole rows that AND row copies of them."""
    for start in range(0, len(columns), _BLOCK_PAIRS):
        run, masks = columns[start:start + _BLOCK_PAIRS], None
        for a, b in _blocks(rows, run, _BLOCK_PAIRS):
            masks, doubt = masks or [t[:, b % len(t)] for t in tables], True
            for mask in masks:
                doubt = doubt & mask[a % len(mask)]
            i, j = np.nonzero(doubt)
            minimal = _minimal(a[i], b[j], marks)
            yield a[i[minimal]], b[j[minimal]]


def _row_roots(rows, ells) -> np.ndarray:
    """b0 for each prime ell >= 5 and row a, as an array [ell, a]: ell divides
    delta = 4a^3 + 27b^2 exactly when b == +-b0 mod ell, and b0 = -1 where no b
    does.  The singular pairs mod ell are (-3s^2, 2s^3): one table per ell maps
    -3s^2 to s for 0 <= s <= ell/2, as -s gives -b0 (and no product passes 2^63)."""
    roots = np.empty((len(ells), len(rows)), dtype=np.int64)
    for i, ell in enumerate(ells.tolist()):
        s, table = np.arange((ell + 1) // 2, dtype=np.int64), np.full(ell, -1, dtype=np.int64)
        table[-3 * s * s % ell] = s
        s = table[rows % ell]
        roots[i] = np.where(s < 0, -1, 2 * (s * s % ell) * s % ell)
    return roots


def _lifts(a, b0, ell: int, width: int) -> Iterator[tuple[int, np.ndarray]]:
    """(ell^k, r_k) for k = 1, 2, ... until ell^k > width: for rows a with ell ∤ a
    and root b0 mod ell (_row_roots), the r_k == b0 mod ell with ell^k | 4a^3 +
    27 r_k^2, lifted one digit at a time (Hensel; the derivative 54 r_k == 54 b0
    is a unit mod ell).  Each r_k is held in (-ell^k/2, ell^k/2): while ell^k
    <= width <= 2 b_max + 1, a column of the box, so 4a^3 + 27 r_k^2 is one of
    its deltas and fits in int64, and past it below ell * width."""
    four_a3, r, modulus = 4 * a**3, np.where(b0 > ell // 2, b0 - ell, b0), ell
    unit, inverse = 54 * b0 % ell, np.ones_like(b0)
    for bit in bin(ell - 2)[2:]:  # unit^(ell - 2) == 1 / unit mod ell
        inverse = inverse * inverse % ell
        if bit == "1":
            inverse = inverse * unit % ell
    while True:
        yield modulus, r
        if modulus > width:
            return
        digit = -((four_a3 + 27 * r * r) // modulus) % ell * inverse % ell
        r, modulus = r + digit * modulus, modulus * ell
        r = (r + modulus // 2) % modulus - modulus // 2


def _row_hits(b, roots, moduli):
    """The columns b == roots[i, row, ...] mod moduli[i] (-1 for none) of the
    tile rows x b, b a run of step 1, as the index i and the flat index row *
    len(b) + column of each, i-major and row by row."""
    width = len(b)
    i, row = np.nonzero(roots >= 0)[:2]
    m = moduli[i]
    start = (roots[roots >= 0] - b[0]) % m  # the first column
    which, step = _expand((width - 1 - start) // m + 1)
    return i[which], row[which] * width + start[which] + step * m[which]


def _expand(count):
    """For progressions of the given lengths, the progression of each term,
    in order, and its step 0, 1, ... along it."""
    which = np.repeat(np.arange(len(count)), count)
    return which, np.arange(len(which)) - (np.cumsum(count) - count)[which]


def _growth_hits(a, lo: int, hi: int, p: int, candidates) -> Iterator[tuple]:
    """The pairs where a candidate ell adds to the growth at p, for the rows a
    (3 ∤ a, so delta != 0) and the odd columns lo <= b <= hi: row index i,
    column b, v = v_ell(delta) and whether the node splits, one entry per pair
    and ell.  ell adds where ell ∤ a and p | v > 0, so on the columns b == +-r
    mod M of a row with a root (_row_roots, _lifts to M = ell^p, or past the
    hi - lo + 1 columns for one column per sign at most), the odd ones b == c
    mod 2M.  As M >= min(ell^p, hi - lo + 2), a row holds at most 2 ((hi - lo)
    // 2M + 1) of them for each ell, so groups of whole rows sized by that
    bound list at most _BLOCK_PAIRS hits, or one row, and each group lifts
    its rows once.  The node splits where -2ab is a square mod ell
    (localdata._split_from_residues), chi(-2a) == chi(b), and a chi table is
    built only for an ell with hits."""
    if not candidates:
        return
    per_row = sum(2 * ((hi - lo) // (2 * min(ell**p, hi - lo + 2)) + 1) for ell in candidates)
    step = max(1, _BLOCK_PAIRS // per_row)
    for start in range(0, len(a), step):
        rows, hits = a[start:start + step], []
        for ell in candidates:
            b0 = _row_roots(rows, np.array([ell]))[0]
            i = np.flatnonzero(b0 > 0)  # b0 = 0 where ell | a, -1 where ell divides no delta
            *_, (modulus, r) = _lifts(rows[i], b0[i], ell, min(hi - lo + 1, ell**p - 1))
            c = np.concatenate([r, -r]) % modulus
            first = lo + (c + (c % 2 == 0) * modulus - lo) % (2 * modulus)
            which, k = _expand((hi - first) // (2 * modulus) + 1)
            i, b = np.tile(i, 2)[which], first[which] + 2 * modulus * k
            v = _valuations(localdata.discriminant(rows[i], b), ell)
            i, b, v = i[v % p == 0], b[v % p == 0], v[v % p == 0]
            if i.size:
                chi = ffcurve.chi_table(ell)
                hits.append((start + i, b, v, chi[-2 * rows[i] % ell] == chi[b % ell]))
        if hits:
            yield tuple(np.concatenate(column) for column in zip(*hits))


def _valuation_counts(a, b_max: int, ell: int) -> Counter:
    """The nonsingular pairs (a, b), a in the rows given, |b| <= b_max, (a, b)
    != (0, 0) mod ell, by v_ell(delta).  A row with ell | a has v = 0 wherever
    ell ∤ b.  In another, ell^k | delta exactly on the columns b == +-r_k mod
    ell^k (_lifts), and b -> -b keeps delta, so the r_k progression is counted
    and doubled: by its length while ell^k <= 2 b_max + 1, then by its one
    column at most, whose v_ell is read exactly (a singular one, delta = 0, is
    dropped)."""
    width, divides = 2 * b_max + 1, a % ell == 0
    a = a[~divides]
    b0 = _row_roots(a, np.array([ell]))[0]
    hist = Counter({0: 2 * (b_max - b_max // ell) * int(np.count_nonzero(divides))
                    + width * int(np.count_nonzero(b0 < 0))})
    a, b0 = a[b0 >= 0], b0[b0 >= 0]
    at_least = [width * len(a)]  # pairs of these rows with ell^k | delta, k = 0, 1, ...
    for modulus, r in _lifts(a, b0, ell, width):
        if modulus <= width:
            at_least.append(2 * int(((b_max - r) // modulus - (-b_max - 1 - r) // modulus).sum()))
    b = (r + b_max) % modulus - b_max
    delta = localdata.discriminant(a[b <= b_max], b[b <= b_max])
    at_least.append(2 * len(delta))
    hist.update({k: at_least[k] - at_least[k + 1] for k in range(len(at_least) - 1)})
    v = _valuations(delta[delta != 0], ell)
    _tally(hist, np.concatenate([v, v]))
    return hist


def _squarefree(win: HeightWindow) -> Iterator[tuple[int, int, int, int]]:
    """mu(m), m and the sub-box (a_max // m^4, b_max // m^6) for each squarefree
    m whose sub-box holds a pair other than (0, 0): the terms of a Möbius sum
    over the minimal pairs, (a, b) = (m^4 a', m^6 b')."""
    top = max(integer_nth_root(win.a_max, 4), integer_nth_root(win.b_max, 6))
    primes = sieve_primes(top)
    for m in range(1, top + 1):
        factors = [q for q in primes if m % q == 0]
        if math.prod(factors) == m:
            yield (-1) ** len(factors), m, win.a_max // m**4, win.b_max // m**6


def _residue_counts(n: int, k: int, scale: int, p: int) -> np.ndarray:
    """#{t : |t| <= n, k ∤ t} by scale * t mod p, from the counts by t mod kp."""
    t = np.arange(k * p, dtype=np.int64)
    counts = np.where(t % k != 0, (n - t) // (k * p) - (-n - 1 - t) // (k * p), 0)
    return np.bincount(scale % p * t % p, counts, p).astype(np.int64)


def _box_census(win: HeightWindow, ells: tuple[int, ...], codes) -> tuple[dict, dict, np.ndarray]:
    """The singular, nonminimal and curves counts of the box, for each ell in
    `ells` its curves not == (0, 0) mod ell by v_ell(delta), and its minimal
    pairs of the sub-grid good at 2 and 3 by class code at p (`codes`), by
    PointClass.  A pair is minimal unless q^4 | a and q^6 | b for a prime q,
    so each count is a Möbius sum (_squarefree) of the same count over the
    nonsingular pairs of the sub-box: (a, b) = (m^4 a', m^6 b') multiplies
    delta by m^12.  The singular pairs are (-3t^2, +-2t^3) and (0, 0).  An m
    with ell | m adds nothing to the ell histogram, nor one with 2 | m or 3 |
    m to the classes.  On the sub-grid the class at p reads (a mod p, b mod
    p), so m adds r^T [codes == c] c, r counting the rows a' of the sub-box
    with 3 ∤ a' by m^4 a' mod p, c its odd columns b' by m^6 b' mod p (if
    p | m, all on codes[0, 0], singular); the float sums are exact (< 2^53)."""
    def singular(a_max: int, b_max: int) -> int:  # the t >= 1 inside the box
        return min(math.isqrt(a_max // 3), integer_nth_root(b_max // 2, 3))

    curves, hists = 0, {ell: Counter() for ell in ells}
    p, classes = len(codes), np.zeros(len(PointClass), dtype=np.int64)
    for sign, m, a_max, b_max in _squarefree(win):
        curves += sign * ((2 * a_max + 1) * (2 * b_max + 1) - 1 - 2 * singular(a_max, b_max))
        for ell in (ell for ell in ells if m % ell):
            for lo in range(-a_max, a_max + 1, _ROW_BAND):
                counts = _valuation_counts(np.arange(lo, min(lo + _ROW_BAND, a_max + 1)), b_max, ell)
                hists[ell].update({v: sign * c for v, c in counts.items()})
        if m % 2 and m % 3:
            weights = np.outer(_residue_counts(a_max, 3, m**4, p), _residue_counts(b_max, 2, m**6, p))
            classes += sign * np.bincount(codes.ravel(), weights.ravel(), len(PointClass)).astype(np.int64)
    singular_pairs = 1 + 2 * singular(win.a_max, win.b_max)
    return ({"singular": singular_pairs, "nonminimal": win.pair_count - singular_pairs - curves,
             "curves": curves}, {ell: +hist for ell, hist in hists.items()}, classes)


@lru_cache(maxsize=8)
def _growth_census(p: int, x: int, ells: tuple[int, ...] = ()) -> GrowthCensus:
    """The census of the height box at the prime p.

    Every pair lands in one bucket: singular, nonminimal or curve, and for each
    ell in `ells` the curves not == (0, 0) mod ell are tallied by v_ell(delta).
    The curves go on into bad_at_2_or_3, bad_at_p, supersingular_at_p,
    torsion_uncertified or classified: every curve off the sub-grid good at 2
    and 3 is bad there, and the others are sorted by class at p.  One Möbius
    sum, _box_census, counts all these in closed form.  Then one walk over bands
    of _ROW_BAND rows hands each band's good rows to _in_doubt, whose pairs
    go to _certify at p in {5, 7}, and to _growth_hits.  The classified curves
    start in the strict, Kodaira-only and Euler histograms at 0, or at 1, 1
    and 2 if anomalous, and each hit curve moves from there by its hits.
    """
    win, codes, candidates = _survey_setup(p, x, ells)
    box, valuation_hists, classes = _box_census(win, ells, codes)
    counts = {"pairs": win.pair_count, **dict.fromkeys(_BUCKETS, 0), **box}
    marks, at_p = win.minimality_primes(), [PointClass.ORDINARY, PointClass.ANOMALOUS]
    doubt = np.zeros(len(PointClass), dtype=np.int64)
    classifiable = (codes == at_p[0]) | (codes == at_p[1])
    if p in (5, 7):  # the first five certificate primes are among any pair's first five good ones
        first = _certificate_primes(p)[:TORSION_CERT_PRIMES]
        tables = [classifiable, *(_certificate_table(q, p) != 2 for q in first)]
    base, hists = classes[at_p], (Counter(), Counter(), Counter())  # ordinary, anomalous
    for start in range(-win.a_max, win.a_max + 1, _ROW_BAND):
        rows = np.arange(start, min(start + _ROW_BAND, win.a_max + 1), dtype=np.int64)
        rows = rows[rows % 3 != 0]  # and the columns b odd: the sub-grid good at 2 and 3
        for a, b in _in_doubt(rows, range(-win.b_max, win.b_max + 1)[1 - win.b_max % 2::2],
                              tables, marks) if p in (5, 7) else ():
            fail = ~_certify(a, b, p)
            doubt += np.bincount(codes[a[fail] % p, b[fail] % p], minlength=len(PointClass))
        for i, b, v, split in _growth_hits(rows, -win.b_max, win.b_max, p, candidates):
            a, code = rows[i], codes[rows[i] % p, b % p]
            keep = _minimal(a, b, marks) & classifiable[a % p, b % p]
            if p in (5, 7):
                keep[keep] = _certify(a[keep], b[keep], p)
            pairs, which = np.unique(i[keep] * (2 * win.b_max + 1) + b[keep], return_inverse=True)
            anomalous = np.bincount(which, code[keep] == PointClass.ANOMALOUS, len(pairs)) > 0
            base -= np.bincount(anomalous, minlength=2)
            split, v = split[keep], v[keep]
            for hist, scale, grow in zip(hists, (1, 1, 2), (split, split | True, split * _valuations(v, p))):
                _tally(hist, scale * anomalous + np.bincount(which, grow, len(pairs)).astype(np.int64))
    classes -= doubt  # every pair in doubt is ordinary or anomalous at p
    counts.update(bad_at_p=int(classes[PointClass.SINGULAR]), torsion_uncertified=int(doubt.sum()),
                  supersingular_at_p=int(classes[PointClass.SUPERSINGULAR]), classified=int(classes[at_p].sum()))
    counts["bad_at_2_or_3"] = counts["curves"] - sum(counts[k] for k in _BUCKETS[4:])
    for hist, bins in zip(hists, ((0, 1), (0, 1), (0, 2))):
        hist.update(dict(zip(bins, (base - doubt[at_p]).tolist())))
    return GrowthCensus(p, x, counts, *(+hist for hist in hists), valuation_hists)


def empirical_selmer_growth(census: GrowthCensus, n: int) -> SurveySummary:
    """Fraction of classified curves whose growth invariant at p is >= n.

    The denominator is the classified set: minimal, nonsingular, good at 2,
    3 and p, ordinary at p, torsion-certified.  The headline ratio uses the
    strict predicate (p | c_ell enforced through the split condition); the
    Kodaira-only variant is counted beside it.  The certified lower bound
    for the same (p, n) is attached, but it counts nonsplit I_m too (see
    bounds), so the strict ratio need not sit above its .lo endpoint.
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
# CSV writers

CSV_COLUMNS = ("a", "b", "height", "minimal", "delta", "kodaira",
               "ordinary", "anomalous", "growth_count", "euler_valuation")


def _record_fields(rec: SurveyRecord) -> tuple:
    kod = None if rec.kodaira is None else ";".join(f"{ell}:{kt}" for ell, kt in rec.kodaira)
    return (rec.a, rec.b, rec.height, int(rec.minimal), rec.delta, kod,
            *(None if flag is None else int(flag) for flag in (rec.ordinary, rec.anomalous)),
            rec.growth_count, rec.euler_valuation)


def write_csv(records: Sequence[SurveyRecord] | Iterator[SurveyRecord], handle) -> int:
    """Write survey records through csv.writer (None prints empty) to `handle`,
    a text handle the caller opened with newline="" and closes; returns the
    number of rows written."""
    writer, rows = csv.writer(handle), 0
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(_record_fields(rec))
        rows += 1
    return rows


def _kodaira_fields(a, b, delta, curve, roots, ells) -> tuple[np.ndarray, tuple]:
    """The kodaira field of each curve of the tile a x b (b consecutive), one
    str: its labels joined by ";", `ell:I<v>`, or `ell:additive` where ell
    divides a (and so b), for each prime ell >= 5 dividing delta, in order;
    and those hits, as the flat index of each curve, ell and v_ell(delta).
    The hits of ell in row a are the columns b == +-roots[ell, a] mod ell
    (_row_hits).  Once their ell^v, the 2s and the 3s are out of
    |delta|, 1 or a prime above the ells is left, dividing delta once: I1.
    Each label is an integer key, ell << 8 | v, or -q for the cofactor q,
    formatted once per distinct key in each form."""
    width = len(b)
    both = np.stack([roots, np.where(roots > 0, ells[:, None] - roots, -1)], axis=-1)
    e, hit = _row_hits(b, both, ells)  # ell-major, so each curve meets its ells in order
    keep = curve.ravel()[hit]
    hit, ell = hit[keep], ells[e[keep]]
    v = _valuations(delta.ravel()[hit], ell)
    rest = np.where(curve, np.abs(delta), 1).ravel()
    rest //= rest & -rest  # the odd part
    rest //= 3 ** _valuations(rest, 3)
    np.floor_divide.at(rest, hit, ell**v)
    cofactor = np.flatnonzero(rest > 1)
    curves = np.concatenate([hit, cofactor])
    order = np.argsort(curves, kind="stable")
    keys = np.concatenate([ell << 8 | np.where(a[hit // width] % ell == 0, 0, v), -rest[cofactor]])
    curves, keys = curves[order], keys[order]
    values, which = np.unique(keys, return_inverse=True)
    bare = [f"{-k}:I1" if k < 0 else f"{k >> 8}:I{k & 255}" if k & 255 else f"{k >> 8}:additive"
            for k in values.tolist()]
    forms = np.array(bare + [";" + label for label in bare], dtype=object)
    later = np.diff(curves, prepend=-1) == 0  # not its curve's first label
    first = np.flatnonzero(~later)
    fields = np.full(delta.size, "", dtype=object)
    fields[curves[first]] = np.add.reduceat(forms[which + len(values) * later], first)
    return fields.reshape(delta.shape), (hit, ell, v)


def _pieces(values) -> np.ndarray:
    """The strings f"{v}," of an integer array, as an object array."""
    return np.array([f"{v}," for v in values.ravel().tolist()], dtype=object).reshape(values.shape)


def _tail(key: int) -> str:
    """The fields after kodaira for a _survey_rows key: empty for -1, else
    ordinary, anomalous, growth_count and euler_valuation from key =
    (euler << 6 | growth) << 2 | ordinary << 1 | anomalous."""
    if key < 0:
        return ",,,,\r\n"
    return f",{key >> 1 & 1},{key & 1},{key >> 2 & 63},{key >> 8}\r\n"


def _survey_rows(x: int, p: int) -> Iterator[tuple[str, int]]:
    """The rows write_csv writes for enumerate_curves(x, p), as one string and
    its number of rows per tile of the height box, read row-major.  A tile's
    text is one join over its pairs x 7 pieces: "a," and "4|a|^3," are
    formatted once per row, "b," and "27b^2," once per column, the fields at p
    once per distinct value and each kodaira label once per distinct label,
    so only delta and each curve's joined labels are built per pair.  (At
    most 16 primes divide |delta| < 2^63, so growth_count < 64 fits its key.)"""
    win, codes, _ = _survey_setup(p, x)
    ells = np.array(sieve_primes(math.isqrt(win.max_abs_discriminant))[2:], dtype=np.int64)
    box_rows = np.arange(-win.a_max, win.a_max + 1, dtype=np.int64)
    roots = _row_roots(box_rows, ells)  # one table per ell
    marks = ((MAX_SURVEY_HEIGHT,) * 2, *win.minimality_primes())  # the first marks (0, 0)
    for a, b in _blocks(box_rows, range(-win.b_max, win.b_max + 1), _CSV_BLOCK_ROWS):
        delta, minimal = localdata.discriminant(a[:, None], b), _minimal(a[:, None], b, marks)
        # (a, b) and (a, -b) share delta and the kodaira field, so a tile of
        # whole rows formats and factors its columns b >= 0 alone; `fold`
        # maps each column to its image among the columns b[lo:]
        lo = len(b) // 2 if b[0] == -b[-1] else 0
        fold = np.abs(np.arange(len(b)) - lo)
        curve = minimal & (delta != 0)
        kodaira, (hit, ell, v) = _kodaira_fields(a, b[lo:], delta[:, lo:], curve[:, lo:],
                                                 roots[:, a + win.a_max], ells)
        # ell ∤ a adds to the growth where p | v, so b != 0: in a folded tile
        # the hit at b stands for -b too, and each column's residue splits it
        row, column = np.divmod(hit, len(b) - lo)
        keep = (v % p == 0) & (a[row] % ell != 0)
        row, column, ell, v = row[keep], b[lo:][column[keep]], ell[keep], v[keep]
        if lo:
            row, column, ell, v = np.tile(row, 2), np.r_[column, -column], np.tile(ell, 2), np.tile(v, 2)
        split = np.array([localdata._split_from_residues(ai % q, bi % q, q) for ai, bi, q in
                          zip(a[row].tolist(), column.tolist(), ell.tolist())], dtype=bool)
        at = row[split] * len(b) + column[split] - b[0]
        code = codes[a[:, None] % p, b % p].ravel()
        anomalous = code == PointClass.ANOMALOUS
        g_strict = anomalous + np.bincount(at, minlength=code.size)
        euler_v = 2 * anomalous + np.bincount(at, _valuations(v[split], p), code.size).astype(np.int64)
        grid = (a[:, None] % 3 != 0) & (b % 2 != 0)  # delta == a mod 3 and == b mod 2
        key = np.where((grid & curve).ravel() & (code != PointClass.SINGULAR), (euler_v << 6 | g_strict) << 2
                       | (code != PointClass.SUPERSINGULAR) << 1 | anomalous, -1)
        values, which = np.unique(key, return_inverse=True)
        a3, b2 = 4 * np.abs(a) ** 3, 27 * b * b
        pieces = np.stack([np.repeat(_pieces(a), len(b)), np.tile(_pieces(b), len(a)),
                           np.where(a3[:, None] >= b2, _pieces(a3)[:, None], _pieces(b2)).ravel(),
                           _MINIMAL[minimal.ravel().astype(np.intp)],
                           _pieces(delta[:, lo:])[:, fold].ravel(), kodaira[:, fold].ravel(),
                           np.array([_tail(k) for k in values.tolist()], dtype=object)[which]], 1)
        yield "".join(pieces.ravel().tolist()), delta.size


def write_survey_csv(x: int, p: int, handle) -> int:
    """Write the bytes of write_csv(enumerate_curves(x, p), handle) to `handle`,
    a text handle opened with newline="", one string per tile of the height
    box; returns the number of rows written."""
    handle.write(",".join(CSV_COLUMNS) + "\r\n")
    rows = 0
    for text, count in _survey_rows(x, p):
        handle.write(text)
        rows += count
    return rows
