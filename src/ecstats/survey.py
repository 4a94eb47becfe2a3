"""Census of curves ordered by naive height, and Monte Carlo local measures.

The height window H(a, b) = max(4|a|^3, 27 b^2) <= x is exactly the box
|a| <= floor((x/4)^(1/3)), |b| <= floor((x/27)^(1/2)) because the two
height terms constrain a and b independently.  Enumeration streams the box;
nothing is retained per curve except optional CSV rows.

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

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from . import bounds, density, ffcurve, localdata
from ._version import __version__
from .arith import factorize, integer_cbrt, is_prime, next_prime, sieve_primes
from .errors import PrimeTooSmallError
from .intervals import QInterval

TORSION_CERT_PRIMES = 5  # good reductions examined by the torsion certificate
_CERT_POOL_SIZE = 12
_MC_MAX_MODULUS = 1 << 19  # keeps 4*a^3 + 27*b^2 inside int64


@dataclass(frozen=True)
class HeightWindow:
    """The exact box of integer pairs with naive height <= x."""

    x: int
    a_max: int
    b_max: int

    @classmethod
    def from_height(cls, x: int) -> "HeightWindow":
        if x < 0:
            raise ValueError("height bound must be nonnegative")
        return cls(x, integer_cbrt(x // 4), math.isqrt(x // 27))

    @property
    def pair_count(self) -> int:
        return (2 * self.a_max + 1) * (2 * self.b_max + 1)

    @property
    def max_abs_discriminant(self) -> int:
        return 4 * self.a_max**3 + 27 * self.b_max**2

    def minimality_primes(self) -> tuple[tuple[int, int], ...]:
        """(ell^4, ell^6) for every prime that could witness non-minimality."""
        out = []
        for ell in sieve_primes(max(self.a_max, self.b_max, 2)):
            if ell**4 <= self.a_max or ell**6 <= self.b_max:
                out.append((ell**4, ell**6))
        return tuple(out)


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


def _classify_record(rec: SurveyRecord, p: int | None) -> SurveyRecord:
    """Slow reference classification via factorization and the local ops."""
    if not rec.nonsingular or not rec.minimal:
        return rec
    delta = rec.delta
    bad_small = delta % 2 == 0 or delta % 3 == 0
    bad_primes = sorted(ell for ell in factorize(delta) if ell >= 5)
    kod = tuple((ell, localdata.kodaira_type(rec.a, rec.b, ell)) for ell in bad_primes)
    out = dict(bad_small=bad_small, kodaira=kod)
    if p is not None and not bad_small and delta % p != 0:
        n = ffcurve.count_points(p, rec.a % p, rec.b % p)
        out["anomalous"] = n % p == 0
        out["ordinary"] = n % p != 1
        out["growth_count"] = localdata.tamagawa_anomaly_count(rec.a, rec.b, p, bad_primes).total
        out["euler_valuation"] = localdata.euler_term_valuation(rec.a, rec.b, p, bad_primes)
    return SurveyRecord(rec.a, rec.b, rec.height, rec.delta, rec.minimal, **out)


def enumerate_curves(x: int, p: int | None = None, classify: bool = False) -> Iterator[SurveyRecord]:
    """Yield every pair in the height window exactly once.

    With classify=True the heavier fields (Kodaira types at the bad primes
    >= 5, and the at-p data when p is given) are filled in via the generic
    factorization path; this is the slow reference pipeline.
    """
    win = HeightWindow.from_height(x)
    min_primes = win.minimality_primes()
    for a in range(-win.a_max, win.a_max + 1):
        four_a3 = 4 * a * a * a
        for b in range(-win.b_max, win.b_max + 1):
            delta = four_a3 + 27 * b * b
            rec = SurveyRecord(a, b, localdata.naive_height(a, b), delta,
                               _is_minimal_pair(a, b, min_primes))
            yield _classify_record(rec, p) if classify else rec


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
    version: str = __version__

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
            "schema_version": 1,
            "kind": self.kind,
            "version": self.version,
            "x": self.x,
            "p": self.p,
            "ell": self.ell,
            "n": self.n,
            "counts": dict(self.counts),
            "empirical": None,
            "theoretical": None,
            "absolute_gap": self.absolute_gap,
            "extras": {k: str(v) for k, v in self.extras.items()},
        }
        if self.empirical is not None:
            out["empirical"] = {"fraction": str(self.empirical), "decimal": float(self.empirical)}
        if self.theoretical is not None:
            out["theoretical"] = self.theoretical.to_json()
        return out


def empirical_minimal_density(x: int, truncation: int = density.DEFAULT_TRUNCATION) -> SurveySummary:
    """Fraction of pairs in the window that are minimal and nonsingular,
    against the enclosure of the everywhere-minimal density."""
    win = HeightWindow.from_height(x)
    min_primes = win.minimality_primes()
    singular = nonminimal = curves = 0
    for a in range(-win.a_max, win.a_max + 1):
        four_a3 = 4 * a * a * a
        hits = tuple(p6 for p4, p6 in min_primes if a % p4 == 0)
        for b in range(-win.b_max, win.b_max + 1):
            if four_a3 + 27 * b * b == 0:
                singular += 1
            elif any(b % p6 == 0 for p6 in hits):
                nonminimal += 1
            else:
                curves += 1
    theoretical = density.congruence_density(
        density.CongruenceDatum(minimal_elsewhere=True), truncation)
    counts = {"pairs": win.pair_count, "singular": singular,
              "nonminimal": nonminimal, "curves": curves}
    return SurveySummary("minimal_density", x, counts,
                         Fraction(curves, win.pair_count), theoretical)


def empirical_kodaira_density(ell: int, n: int, x: int) -> SurveySummary:
    """Fraction of minimal nonsingular curves with type I_n at ell, against
    the exact prediction density_In(ell, n) / minimal_density(ell)."""
    if not is_prime(ell) or ell < 5:
        raise PrimeTooSmallError(f"ell = {ell} must be a prime >= 5")
    if n < 1:
        raise ValueError("n must be >= 1")
    win = HeightWindow.from_height(x)
    min_primes = win.minimality_primes()
    curves = hits = 0
    ell_n, ell_n1 = ell**n, ell ** (n + 1)
    for a in range(-win.a_max, win.a_max + 1):
        four_a3 = 4 * a * a * a
        nm_hits = tuple(p6 for p4, p6 in min_primes if a % p4 == 0)
        a_zero_mod = a % ell == 0
        for b in range(-win.b_max, win.b_max + 1):
            delta = four_a3 + 27 * b * b
            if delta == 0 or any(b % p6 == 0 for p6 in nm_hits):
                continue
            curves += 1
            if delta % ell_n == 0 and delta % ell_n1 != 0:
                if not (a_zero_mod and b % ell == 0):
                    hits += 1
    theoretical = QInterval.point(density.density_In(ell, n) / density.minimal_density(ell))
    counts = {"pairs": win.pair_count, "curves": curves, "type_In_at_ell": hits}
    return SurveySummary("kodaira_density", x, counts,
                         Fraction(hits, curves) if curves else None,
                         theoretical, ell=ell, n=n)


def _certificate_pool(p: int) -> tuple[tuple[int, bytes], ...]:
    """Per-q tables of #E(F_q) mod p (255 marks singular) for the torsion
    certificate, over the first candidate primes q >= 5, q != p."""
    pool = []
    q = 5 if p != 5 else 7
    while len(pool) < _CERT_POOL_SIZE:
        if q != p:
            table = ffcurve.point_count_table(q)
            pool.append((q, bytes(255 if c < 0 else c % p for c in table)))
        q = next_prime(q)
    return tuple(pool)


def _certificate_fallback(a: int, b: int, p: int, delta: int,
                          start_after: int, good_seen: int) -> bool:
    q = next_prime(start_after)
    while good_seen < TORSION_CERT_PRIMES:
        if q != p and delta % q != 0:
            good_seen += 1
            if ffcurve.count_points(q, a % q, b % q) % p != 0:
                return True
        q = next_prime(q)
    return False


@dataclass(frozen=True)
class GrowthCensus:
    p: int
    x: int
    counts: dict
    strict_hist: dict
    kodaira_hist: dict
    euler_hist: dict

    def tail(self, hist: dict, n: int) -> int:
        return sum(c for v, c in hist.items() if v >= n)


@lru_cache(maxsize=8)
def _growth_census(p: int, x: int) -> GrowthCensus:
    if not is_prime(p) or p < 5:
        raise PrimeTooSmallError(f"p = {p} must be a prime >= 5")
    win = HeightWindow.from_height(x)
    min_primes = win.minimality_primes()
    class_codes = ffcurve.class_code_table(p)
    cert_pool = _certificate_pool(p) if p in (5, 7) else None
    last_pool_prime = cert_pool[-1][0] if cert_pool else 0
    # only primes with ell^p <= |delta| can carry a Tamagawa number
    # divisible by p (split I_m needs p | m = v_ell(delta))
    candidates = tuple(ell for ell in sieve_primes(max(5, int(win.max_abs_discriminant ** (1.0 / p)) + 2))
                       if ell >= 5 and ell != p and ell**p <= win.max_abs_discriminant)
    singular = nonminimal = curves = bad_small = bad_at_p = supersingular = 0
    uncertified = classified = 0
    strict_hist: dict[int, int] = {}
    kodaira_hist: dict[int, int] = {}
    euler_hist: dict[int, int] = {}
    split_test = localdata._split_from_residues
    for a in range(-win.a_max, win.a_max + 1):
        four_a3 = 4 * a * a * a
        nm_hits = tuple(p6 for p4, p6 in min_primes if a % p4 == 0)
        row = (a % p) * p
        for b in range(-win.b_max, win.b_max + 1):
            delta = four_a3 + 27 * b * b
            if delta == 0:
                singular += 1
                continue
            if any(b % p6 == 0 for p6 in nm_hits):
                nonminimal += 1
                continue
            curves += 1
            if delta % 2 == 0 or delta % 3 == 0:
                bad_small += 1
                continue
            code = class_codes[row + b % p]
            if code == ffcurve._CODE_SINGULAR:
                bad_at_p += 1
                continue
            if code == ffcurve._CODE_SUPERSINGULAR:
                supersingular += 1
                continue
            anomalous = code == ffcurve._CODE_ANOMALOUS
            if cert_pool is not None:
                certified = False
                good_seen = 0
                for q, table in cert_pool:
                    r = table[(a % q) * q + b % q]
                    if r == 255:
                        continue
                    good_seen += 1
                    if r != 0:
                        certified = True
                        break
                    if good_seen == TORSION_CERT_PRIMES:
                        break
                if not certified and good_seen < TORSION_CERT_PRIMES:
                    certified = _certificate_fallback(a, b, p, delta, last_pool_prime, good_seen)
                if not certified:
                    uncertified += 1
                    continue
            classified += 1
            g_strict = g_kodaira = 1 if anomalous else 0
            euler_v = 2 if anomalous else 0
            for ell in candidates:
                if delta % ell:
                    continue
                v, rest = 1, delta // ell
                while rest % ell == 0:
                    v += 1
                    rest //= ell
                if v % p == 0 and (a % ell or b % ell):
                    g_kodaira += 1
                    if split_test(a % ell, b % ell, ell):
                        g_strict += 1
                        while v % p == 0:
                            euler_v += 1
                            v //= p
            strict_hist[g_strict] = strict_hist.get(g_strict, 0) + 1
            kodaira_hist[g_kodaira] = kodaira_hist.get(g_kodaira, 0) + 1
            euler_hist[euler_v] = euler_hist.get(euler_v, 0) + 1
    counts = {
        "pairs": win.pair_count, "singular": singular, "nonminimal": nonminimal,
        "curves": curves, "bad_at_2_or_3": bad_small, "bad_at_p": bad_at_p,
        "supersingular_at_p": supersingular, "torsion_uncertified": uncertified,
        "classified": classified,
    }
    return GrowthCensus(p, x, counts, strict_hist, kodaira_hist, euler_hist)


def empirical_selmer_growth(p: int, n: int, x: int, kodaira_only: bool = False,
                            truncation: int | None = None) -> SurveySummary:
    """Fraction of classified curves whose growth invariant at p is >= n.

    The denominator is the classified set: minimal, nonsingular, good at 2,
    3 and p, ordinary at p, torsion-certified.  Both the strict predicate
    (p | c_ell enforced through the split condition) and the Kodaira-only
    variant are counted; `kodaira_only` selects which one the headline
    ratio uses.  The certified lower bound for the same (p, n) is attached
    for comparison; the bound is one-sided, so the empirical ratio is
    expected to sit above its .lo endpoint.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    census = _growth_census(p, x)
    hits_strict = census.tail(census.strict_hist, n)
    hits_kodaira = census.tail(census.kodaira_hist, n)
    classified = census.counts["classified"]
    report = bounds.selmer_growth_bound(p, n, truncation)
    hits = hits_kodaira if kodaira_only else hits_strict
    counts = dict(census.counts)
    counts["growth_ge_n_strict"] = hits_strict
    counts["growth_ge_n_kodaira_only"] = hits_kodaira
    extras = {
        "predicate": "kodaira_only" if kodaira_only else "strict",
        "bound_lo": report.value.lo,
        "empirical_strict": Fraction(hits_strict, classified) if classified else None,
        "empirical_kodaira_only": Fraction(hits_kodaira, classified) if classified else None,
    }
    return SurveySummary("selmer_growth", x, counts,
                         Fraction(hits, classified) if classified else None,
                         report.value, p=p, n=n, extras=extras)


def empirical_euler_divisibility(p: int, n: int, x: int,
                                 truncation: int | None = None) -> SurveySummary:
    """Fraction of classified curves with v_p(Euler term) >= n, with the
    corresponding certified lower bound attached."""
    if n < 1:
        raise ValueError("n must be >= 1")
    census = _growth_census(p, x)
    hits = census.tail(census.euler_hist, n)
    classified = census.counts["classified"]
    report = bounds.euler_divisibility_bound(p, n, truncation)
    counts = dict(census.counts)
    counts["euler_valuation_ge_n"] = hits
    extras = {"bound_lo": report.value.lo}
    return SurveySummary("euler_divisibility", x, counts,
                         Fraction(hits, classified) if classified else None,
                         report.value, p=p, n=n, extras=extras)


# ---------------------------------------------------------------------------
# Monte Carlo estimation of local measures


@dataclass(frozen=True)
class MonteCarloResult:
    ell: int
    exponent: int
    samples: int
    seed: int
    hits: int
    estimate: Fraction
    std_error: float

    def to_json(self) -> dict:
        return {
            "ell": self.ell, "exponent": self.exponent, "samples": self.samples,
            "seed": self.seed, "hits": self.hits,
            "estimate": str(self.estimate), "estimate_decimal": float(self.estimate),
            "std_error": self.std_error,
        }


def montecarlo_local_measure(ell: int, exponent: int, predicate: Callable,
                             samples: int, seed: int) -> MonteCarloResult:
    """Estimate the measure of a congruence set by uniform sampling of
    residue pairs mod ell^exponent.

    `predicate` receives two equal-length int64 numpy arrays (a, b) of
    residues and must return an elementwise boolean array.  Deterministic
    for a fixed seed.  Standard error is the binomial sqrt(q(1-q)/m) at the
    estimated q.
    """
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    modulus = ell**exponent
    if modulus > _MC_MAX_MODULUS:
        raise ValueError(f"ell^exponent must be <= {_MC_MAX_MODULUS}")
    rng = np.random.default_rng(seed)
    a = rng.integers(0, modulus, size=samples, dtype=np.int64)
    b = rng.integers(0, modulus, size=samples, dtype=np.int64)
    mask = np.asarray(predicate(a, b))
    if mask.shape != a.shape:
        raise ValueError("predicate must return one boolean per sample")
    hits = int(mask.sum())
    q = Fraction(hits, samples)
    se = math.sqrt(float(q) * (1.0 - float(q)) / samples)
    return MonteCarloResult(ell, exponent, samples, seed, hits, q, se)


def valuation_box_predicate(ell: int, v1: int, v2: int) -> Callable:
    """Membership test for {v(a) >= v1, v(b) >= v2}; use exponent >= max(v1, v2, 1)."""
    m1, m2 = ell**v1, ell**v2

    def predicate(a, b):
        return (a % m1 == 0) & (b % m2 == 0)

    predicate.exponent = max(v1, v2, 1)
    predicate.exact_measure = density.valuation_box_measure(ell, v1, v2)
    return predicate


def kodaira_In_predicate(ell: int, n: int) -> Callable:
    """Membership test for Kodaira type I_n at ell on residues mod ell^(n+1)."""
    modulus = ell ** (n + 1)
    step = ell**n

    def predicate(a, b):
        a = a % modulus
        b = b % modulus
        delta = (4 * a * a * a + 27 * b * b) % modulus
        nonzero_mod_ell = (a % ell != 0) | (b % ell != 0)
        return nonzero_mod_ell & (delta % step == 0) & (delta != 0)

    predicate.exponent = n + 1
    predicate.exact_measure = density.density_In(ell, n)
    return predicate


# ---------------------------------------------------------------------------
# CSV sink

CSV_COLUMNS = ("a", "b", "height", "minimal", "delta", "kodaira",
               "ordinary", "anomalous", "growth_count", "euler_valuation")


def write_csv(records: Sequence[SurveyRecord] | Iterator[SurveyRecord], path) -> int:
    """Write survey records; returns the number of rows written."""
    rows = 0
    close = False
    if isinstance(path, (str, bytes)):
        handle = open(path, "w", newline="")
        close = True
    else:
        handle = path
    try:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            kod = ""
            if rec.kodaira is not None:
                kod = ";".join(f"{ell}:{kt}" for ell, kt in rec.kodaira)
            writer.writerow([
                rec.a, rec.b, rec.height, int(rec.minimal), rec.delta, kod,
                "" if rec.ordinary is None else int(rec.ordinary),
                "" if rec.anomalous is None else int(rec.anomalous),
                "" if rec.growth_count is None else rec.growth_count,
                "" if rec.euler_valuation is None else rec.euler_valuation,
            ])
            rows += 1
    finally:
        if close:
            handle.close()
    return rows
