"""Self-check suites: census reproduction, independent oracles, bound laws.

Each check returns CheckResult records instead of raising, so the CLI can
print one status line per check and exit nonzero on any failure.  The
oracles here are deliberately written against the definitions (affine
(x, y) enumeration on the cubic, exact residue counts of local measures)
rather than through the library's counting paths; none samples, and none
loads numpy.  The tests call these checks instead of re-deriving the laws,
so `pytest` and `ecstats verify` check one implementation of each.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import bounds, density, ffcurve, localdata, reference_tables
from .arith import primes_in
from .intervals import QInterval


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# census / oracle checks


def check_reference_tables(pmin: int = 7, pmax: int = 149) -> list[CheckResult]:
    """Recompute both densities for each reference prime and compare."""
    out = []
    for p in reference_tables.REFERENCE_DENSITIES:
        if not pmin <= p <= pmax:
            continue
        worst = max(map(abs, reference_tables.reference_diffs(ffcurve.residue_class_counts(p))))
        out.append(_result(f"census p={p} matches reference",
                           worst <= reference_tables.COMPARISON_TOLERANCE,
                           f"|diff| = {float(worst):.2e}"))
    return out


def brute_force_class_counts(p: int) -> ffcurve.ClassCounts:
    """Classify all residue pairs by literal (x, y) enumeration."""
    sing = ordinary = anom = ss = 0
    for a in range(p):
        for b in range(p):
            if (4 * a * a * a + 27 * b * b) % p == 0:
                sing += 1
                continue
            r = (1 + smooth_point_count(a, b, p)) % p
            if r == 0:
                anom += 1
            elif r == 1:
                ss += 1
            else:
                ordinary += 1
    return ffcurve.ClassCounts(p, ordinary, anom, ss, sing)


def check_count_oracle(primes=(5, 7, 11, 13)) -> list[CheckResult]:
    out = []
    for p in primes:
        got = ffcurve.residue_class_counts(p)
        want = brute_force_class_counts(p)
        out.append(_result(f"census p={p} equals brute force", got == want,
                           f"got {got}, want {want}" if got != want else ""))
    return out


def _singular_grid(ell: int) -> list[tuple[int, int]]:
    """The pairs (a, b) mod ell with 4a^3 + 27b^2 == 0, row by row: row a holds
    the b with 27b^2 == -4a^3, read from the columns listed by 27b^2 mod ell."""
    columns = [[] for _ in range(ell)]
    for b in range(ell):
        columns[27 * b * b % ell].append(b)
    return [(a, b) for a in range(ell) for b in columns[-4 * a**3 % ell]]


def check_singular_counts(limit: int = 200) -> list[CheckResult]:
    """#{(a, b) mod ell : 4a^3 + 27b^2 == 0} equals ell exactly."""
    counts = ((ell, len(_singular_grid(ell))) for ell in primes_in(5, limit))
    return [_result(f"singular count at {ell} equals {ell}", n == ell, f"got {n}")
            for ell, n in counts]


def check_class_number_relation(primes=(5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 1009)
                                ) -> list[CheckResult]:
    """sum_{t^2 < 4p} H(4p - t^2) = 2p: the census reads the class numbers at
    t = 0 and t = 1 only, and this checks the same form count at every trace
    (the census's partition of the p^2 pairs holds by construction)."""
    out = []
    for p in primes:
        r = math.isqrt(4 * p - 1)
        total = ffcurve._hurwitz6(4 * p) + 2 * sum(ffcurve._hurwitz6(4 * p - t * t)
                                                    for t in range(1, r + 1))
        out.append(_result(f"class numbers H(4p - t^2) sum to 2p at p={p}",
                           total == 12 * p, f"6 * sum {total} vs 12p = {12 * p}"))
    return out


def check_hasse(p: int = 13) -> list[CheckResult]:
    """|p + 1 - N| <= 2 sqrt(p) for every smooth pair, as (p + 1 - N)^2 <= 4p in integers."""
    bad = []
    for a in range(p):
        for b in range(p):
            n = ffcurve.classify_residue(p, a, b).point_count
            if n is not None and (p + 1 - n) ** 2 > 4 * p:
                bad.append((a, b, n))
    return [_result(f"Hasse interval at p={p}", not bad, f"violations: {bad[:3]}")]


def smooth_point_count(a: int, b: int, ell: int) -> int:
    """sum_x #{y : y^2 = x^3 + a x + b} over F_ell (oracle path).

    On a smooth curve this is #E(F_ell) - 1.  On a nodal cubic it is the
    number of nonsingular points: adding the point at infinity and dropping
    the node (the unique affine point with y = 0 over the double root)
    cancel.
    """
    counts = [0] * ell
    for y in range(ell):
        counts[y * y % ell] += 1
    return sum(counts[(x * x * x + a * x + b) % ell] for x in range(ell))


def check_split_dual_oracle(max_ell: int = 50) -> list[CheckResult]:
    """Slope-residue test vs smooth-point count, exhaustively.

    Membership of a pair mod ell^2 in the multiplicative class and both
    verdicts factor through reduction mod ell, so checking every singular
    nonzero pair mod ell covers all ell^2-lifts; the lift count is reported.
    """
    out = []
    for ell in primes_in(5, max_ell):
        pairs = [(a, b) for a, b in _singular_grid(ell) if a or b]
        classes, disagreements = len(pairs), 0
        for a, b in pairs:
            slope_split = localdata._split_from_residues(a, b, ell)
            smooth = smooth_point_count(a, b, ell)
            count_split = smooth == ell - 1
            if smooth not in (ell - 1, ell + 1) or slope_split != count_split:
                disagreements += 1
        out.append(_result(
            f"split dual oracle at ell={ell}",
            disagreements == 0 and classes == ell - 1,
            f"{classes} classes = {classes * ell * ell} pairs mod ell^2, "
            f"{disagreements} disagreements",
        ))
    return out


def counted_box_measure(ell: int, v1: int, v2: int) -> Fraction:
    """Share of pairs mod ell^e, e = max(v1, v2, 1), with v(a) >= v1 and v(b) >= v2:
    the rows with v(a) >= v1 times the columns with v(b) >= v2."""
    modulus = ell ** max(v1, v2, 1)
    rows, cols = (sum(r % ell**v == 0 for r in range(modulus)) for v in (v1, v2))
    return Fraction(rows * cols, modulus**2)


def _divisible_pairs(ell: int, k: int) -> int:
    """#{(a, b) mod ell^k, not both 0 mod ell : ell^k | 4a^3 + 27b^2}.  Then ell | a
    forces ell | b, so only the rows ell ∤ a count; row a holds the b with
    27b^2 == -4a^3, read from a histogram of 27b^2 mod ell^k: O(ell^k) work."""
    modulus = ell**k
    hist = [0] * modulus
    for b in range(modulus):
        hist[27 * b * b % modulus] += 1
    return sum(hist[-4 * a**3 % modulus] for a in range(modulus) if a % ell)


def counted_In_measure(ell: int, n: int) -> Fraction:
    """Share of pairs mod M = ell^(n+1) of type I_n: v(4a^3 + 27b^2) = n, (a, b) != (0, 0)
    mod ell.  ell^n | delta depends on the pair mod ell^n only, so the pairs mod M with
    ell^n | delta are ell^2 times those mod ell^n, less those with ell^(n+1) | delta."""
    count = ell**2 * _divisible_pairs(ell, n) - _divisible_pairs(ell, n + 1)
    return Fraction(count, ell ** (2 * n + 2))


def check_local_measures() -> list[CheckResult]:
    """Each closed-form local measure equals its exact count over all residue
    pairs: 10 valuation boxes, and I_n at 5 (n <= 4), 7 and 11 (n <= 3)."""
    cases = [(f"box v(a)>={v1}, v(b)>={v2} at ell={ell}", counted_box_measure(ell, v1, v2),
              density.valuation_box_measure(ell, v1, v2))
             for ell, v1, v2 in ((5, 1, 1), (5, 1, 2), (5, 2, 1), (5, 0, 2), (7, 1, 1),
                                 (7, 1, 2), (7, 2, 0), (11, 1, 1), (11, 0, 1), (11, 2, 2))]
    cases += [(f"I_{n} at ell={ell}", counted_In_measure(ell, n), density.density_In(ell, n))
              for ell, top in ((5, 4), (7, 3), (11, 3)) for n in range(1, top + 1)]
    return [_result(f"{label} counted exactly", got == want, f"count {got}, closed form {want}")
            for label, got, want in cases]


# ---------------------------------------------------------------------------
# density / bound laws


def check_telescoping(ells=(5, 7, 11, 13), upto: int = 50) -> list[CheckResult]:
    out = []
    for ell in ells:
        total = sum(density.density_In(ell, n) for n in range(1, upto + 1))
        total += density.density_In_at_least(ell, upto + 1)
        out.append(_result(f"telescoping at ell={ell}",
                           total == density.density_In_at_least(ell, 1)))
    return out


def check_symmetric_conventions(p: int = 7) -> list[CheckResult]:
    e0 = bounds.prime_symmetric_sum(0, p, 100)
    negative = [bounds.prime_symmetric_sum(m, p, 100) for m in (-1, -2, -5)]
    return [
        _result("symmetric sum order 0 is [1,1]", e0 == QInterval.point(1)),
        _result("symmetric sum negative order is [0,0]",
                all(e == QInterval.point(0) for e in negative), "orders -1, -2, -5"),
    ]


def check_bound_laws(grid_p=(5, 7, 11, 13), grid_n=(1, 2, 3)) -> list[CheckResult]:
    reports = {(p, n): bounds.selmer_growth_bound(p, n) for p in grid_p for n in grid_n}
    not_positive = [pn for pn, r in reports.items() if not r.value.lo > 0]
    not_decreasing = [(p, n) for p in grid_p for n in grid_n[:-1]
                      if not reports[(p, n + 1)].value.lo < reports[(p, n)].value.lo]
    unequal = [pn for pn, r in reports.items() if bounds.mu_lambda_bound(*pn).value != r.value]
    out = [
        _result("growth bound positive on grid", not not_positive,
                f"violations: {not_positive}"),
        _result("growth bound decreasing in n", not not_decreasing,
                f"violations: {not_decreasing}"),
        _result("mu+lambda bound equals growth bound", not unequal, f"violations: {unequal}"),
    ]
    p, n = 7, 1
    base = bounds.default_truncation(p)
    ladder = [bounds.selmer_growth_bound(p, n, truncation=base * 2**i) for i in range(4)]
    out.append(_result(
        "lower endpoint nondecreasing under truncation doubling",
        all(ladder[i].value.lo <= ladder[i + 1].value.lo for i in range(3)),
        " <= ".join(f"{float(r.value.lo):.12f}" for r in ladder),
    ))
    out.append(_result(
        "intervals nest under refinement",
        all(ladder[i].value.encloses(ladder[i + 1].value) for i in range(3)),
    ))
    fam = bounds.growth_family_density((5,), 1, 7, truncation=200)
    out.append(_result(
        "family density exceeds its stated bound",
        fam.exact.lo > fam.stated_bound.hi,
        f"exact.lo = {float(fam.exact.lo):.6e}, bound.hi = {float(fam.stated_bound.hi):.6e}",
    ))
    euler1 = bounds.euler_divisibility_bound(7, 1)
    out.append(_result(
        "euler bound at n=1 has vanishing auxiliary term",
        euler1.terms.sym_aux == QInterval.point(0),
    ))
    return out


SWEEP_GAP = Fraction(1, 2**200)  # how far a swept endpoint may sit outside the exact one


def _encloses_within_gap(swept: QInterval, exact: QInterval) -> bool:
    return (swept.encloses(exact) and exact.lo - swept.lo <= SWEEP_GAP * exact.lo
            and swept.hi - exact.hi <= SWEEP_GAP * exact.hi)


def check_sweeps_enclose_exact(sums=((3, 13, 400), (2, 7, 1000))) -> list[CheckResult]:
    """Each outward-rounded sweep of `bounds` and `density` encloses the exact
    value, within SWEEP_GAP relative: e_0..e_n over the primes the sweep reads
    at each (n, p, truncation) of `sums`, from the recurrence
    e_j += f * e_(j-1) on integers over one common denominator; zeta(7) over
    200 terms; and the cofinite product of the family ((5,), p = 7) up to 200,
    from exact Fraction factors."""
    cases = []
    for n, p, truncation in sums:
        swept, upto = bounds._symmetric_sums(n, p, truncation)
        num = [1] + [0] * n
        for ell in primes_in(5, upto):
            if ell != p:
                fn, fd = bounds._weight_ratio(ell, p)
                num = [num[0] * fd] + [num[j] * fd + fn * num[j - 1] for j in range(1, n + 1)]
        cases.append((f"e_0..e_{n} at p={p}, L={truncation}", swept,
                      [QInterval.point(Fraction(v, num[0])) for v in num]))
    partial = sum(Fraction(1, m**7) for m in range(1, 201))
    cases.append(("zeta(7) over 200 terms", [bounds.zeta_enclosure(7, 200)],
                  [QInterval(partial, partial + Fraction(1, 6 * 200**6))]))
    product = math.prod(density.minimal_density(ell) - density.density_In_at_least(ell, 7)
                        for ell in primes_in(11, 200))
    cases.append(("family product at p=7 outside (5,), L=200",
                  [density.congruence_density({5, 2, 3, 7}, 200, 7)],
                  [density.minimal_tail(200, 7) * product]))
    return [_result(f"swept {name} encloses exact", all(map(_encloses_within_gap, swept, exact)))
            for name, swept, exact in cases]


SUITES = {
    "tables": (check_reference_tables,),
    "oracles": (check_count_oracle, check_singular_counts, check_class_number_relation,
                check_hasse, check_split_dual_oracle, check_local_measures),
    "bounds": (check_telescoping, check_symmetric_conventions, check_bound_laws,
               check_sweeps_enclose_exact),
}


def run_suite(name: str) -> list[CheckResult]:
    checks = [fn for suite in SUITES.values() for fn in suite] if name == "all" else SUITES[name]
    return [result for fn in checks for result in fn()]
