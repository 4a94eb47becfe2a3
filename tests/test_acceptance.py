"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 7b is split into its two directions.  In n the growth
bound is strictly decreasing.  In p it checks three laws:

(a) for j = 1, 2, 3 the symmetric sum e_j is certified strictly decreasing
    in p, so Tamagawa-driven growth gets rarer as p grows;
(b) for n >= 2 the full bound is strictly decreasing in p;
(c) for n = 1 the bound moves between consecutive primes in the same
    direction as the anomalous density N_anom(p) / p^2.

The n = 1 bound is not monotone in p: it is dominated by the anomalous
weight, and Deuring's count (p-1)/2 * H(4p-1) of anomalous pairs gives
5 pairs at p = 11 but 12 at p = 13, so the bound rises there.
"""

from fractions import Fraction

import pytest

from ecstats import bounds, survey, verify


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def census_1e8():
    """The x = 1e8 census at p = 7 with the ell = 5, 7 valuation histograms;
    it is cached, so criteria 3, 4 and 8 read one pass over the box."""
    return survey._growth_census(7, 10**8, (5, 7))


GRID_P = (5, 7, 11, 13)
GRID_N = (1, 2, 3)


@pytest.fixture(scope="module")
def grid_reports():
    return {(p, n): bounds.selmer_growth_bound(p, n) for p in GRID_P for n in GRID_N}


def test_criterion_01_table_reproduction():
    """Both census densities match the reference decimals to 1e-12 for
    every prime 7 <= p < 150."""
    results = verify.check_reference_tables(7, 149)
    bad = [r for r in results if not r.passed]
    report("1 table reproduction (32 rows, tol 1e-12)", len(results) == 32 and not bad,
           f"{len(results)} rows, failures: {[r.name for r in bad]}")


def test_criterion_02_singular_count_identity():
    """Exactly ell singular pairs mod ell for every prime 5 <= ell <= 200."""
    results = verify.check_singular_counts(200)
    bad = [r.name for r in results if not r.passed]
    report("2 singular-count identity (5 <= ell <= 200)", not bad, f"failures: {bad}")


def test_criterion_03_minimality_density():
    """|minimal fraction at x = 1e8  -  1/zeta(10)| < 1e-3."""
    s = survey.empirical_minimal_density(census_1e8())
    tol = Fraction(1, 1000)
    ok = (s.empirical + tol >= s.theoretical.lo) and (s.empirical - tol <= s.theoretical.hi)
    # the singular locus is thin at this height
    assert Fraction(s.counts["singular"], s.counts["pairs"]) < Fraction(1, 100)
    report("3 minimality density at x=1e8 (tol 1e-3)", ok,
           f"empirical {float(s.empirical):.9f}, enclosure "
           f"[{float(s.theoretical.lo):.9f}, {float(s.theoretical.hi):.9f}]")


@pytest.mark.parametrize("ell", [5, 7])
def test_criterion_04_kodaira_density(ell):
    """I_1 fraction at x = 1e8 within 5e-3 of the exact local prediction."""
    s = survey.empirical_kodaira_density(census_1e8(), ell, 1)
    midpoint = (s.theoretical.lo + s.theoretical.hi) / 2
    gap = abs(s.empirical - midpoint)
    report(f"4 Kodaira I_1 density at ell={ell}, x=1e8 (tol 5e-3)",
           gap < Fraction(5, 1000),
           f"empirical {float(s.empirical):.7f}, predicted "
           f"{float(midpoint):.7f}, gap {float(gap):.2e}")


def test_criterion_05_exact_local_measures():
    """20 closed-form local measures (10 valuation boxes, I_n at 5, 7, 11),
    each equal to its exact count over all residue pairs."""
    results = verify.check_local_measures()
    assert len(results) == 20
    bad = [r.name for r in results if not r.passed]
    report("5 exact local-measure oracle (20 measures, all residue pairs counted)",
           not bad, f"{20 - len(bad)}/20 equal, failures: {bad}")


def test_criterion_06_split_dual_oracle():
    """Slope test vs smooth-point count for all multiplicative residue
    pairs mod ell^2, all primes 5 <= ell <= 50, zero disagreements."""
    results = verify.check_split_dual_oracle(50)
    bad = [r.name for r in results if not r.passed]
    pairs = sum(int(r.detail.split("=")[1].split("pairs")[0]) for r in results)
    report("6 split-test dual oracle (5 <= ell <= 50, exhaustive)", not bad,
           f"{pairs} residue pairs mod ell^2 checked, failures: {bad}")


def test_criterion_07a_positivity(bound_laws):
    r = bound_laws["growth bound positive on grid"]
    report("7a growth bound positivity on the (p, n) grid", r.passed, r.detail)


def test_criterion_07b_monotone_in_n(bound_laws):
    r = bound_laws["growth bound decreasing in n"]
    report("7b growth bound strictly decreasing in n", r.passed, r.detail)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def test_criterion_07b_monotone_in_p(grid_reports):
    """Growth gets rarer as p grows wherever the method says so.

    (a) e_j(p_b).hi < e_j(p_a).lo for j = 1, 2, 3 and consecutive primes
    p_a < p_b: each f(ell) has the factor 1/(ell^p - 1).
    (b) B(p_b, n).lo < B(p_a, n).lo for n >= 2.
    (c) B(p, 1) is essentially the anomalous weight (e_0 = 1), so its
    direction between consecutive primes follows N_anom(p) / p^2, read
    from the brute-force oracle.  Deuring's count gives 5 anomalous pairs
    at p = 11 and 12 at p = 13, so the n = 1 bound rises there.
    """
    steps = list(zip(GRID_P, GRID_P[1:]))
    sym_bad = [(pa, pb, j) for pa, pb in steps for j in GRID_N
               if not grid_reports[(pb, j)].terms.sym_main.hi
               < grid_reports[(pa, j)].terms.sym_main.lo]
    bound_bad = [(pa, pb, n) for pa, pb in steps for n in GRID_N[1:]
                 if not grid_reports[(pb, n)].value.lo < grid_reports[(pa, n)].value.lo]
    anom = {p: verify.brute_force_class_counts(p).anomalous for p in GRID_P}
    density = {p: Fraction(anom[p], p * p) for p in GRID_P}
    dir_bad, rises = [], []
    for pa, pb in steps:
        step = _sign(grid_reports[(pb, 1)].value.lo - grid_reports[(pa, 1)].value.lo)
        if step != _sign(density[pb] - density[pa]):
            dir_bad.append((pa, pb))
        if step > 0:
            rises.append(f"({pa}, {pb}): {anom[pa]}/{pa * pa} -> {anom[pb]}/{pb * pb}")
    report("7b growth bound decreasing in p (e_j for j <= 3, B for n >= 2; "
           "B(p, 1) follows the anomalous density)",
           not (sym_bad or bound_bad or dir_bad),
           f"e_j violations: {sym_bad}, n >= 2 violations: {bound_bad}, "
           f"n = 1 direction mismatches: {dir_bad}, n = 1 rises: {rises}")


def test_criterion_07c_truncation_monotonicity(bound_laws):
    r = bound_laws["lower endpoint nondecreasing under truncation doubling"]
    report("7c certified lower endpoint nondecreasing under L -> 2L (x3)", r.passed, r.detail)


def test_criterion_07d_mu_lambda_consistency(bound_laws):
    r = bound_laws["mu+lambda bound equals growth bound"]
    report("7d mu+lambda bound identical to growth bound", r.passed, r.detail)


def test_criterion_07e_interval_nesting(bound_laws):
    r = bound_laws["intervals nest under refinement"]
    report("7e value intervals nest under truncation refinement", r.passed, r.detail)


def test_criterion_08_bound_vs_survey(bound_laws):
    """At x = 1e8, p = 7, n = 1: strict empirical growth fraction exceeds
    the certified bound minus the documented 0.01 slack, and the exact
    family density for (sigma={5}, k=1) exceeds its simplified bound."""
    g = survey.empirical_selmer_growth(census_1e8(), 1)
    slack = Fraction(1, 100)
    ok_growth = g.empirical >= g.theoretical.lo - slack
    family = bound_laws["family density exceeds its stated bound"]
    report("8 bound-vs-survey one-sided checks (x=1e8, p=7, n=1)",
           ok_growth and family.passed,
           f"empirical {float(g.empirical):.6f} vs bound.lo {float(g.theoretical.lo):.6f}; "
           f"family {family.detail}")


def test_criterion_09_symmetric_conventions():
    results = [r for p in (7, 11) for r in verify.check_symmetric_conventions(p)]
    bad = [r.name for r in results if not r.passed]
    report("9 symmetric-sum conventions e_0 = [1,1], e_{n<0} = [0,0] at p = 7, 11",
           len(results) == 4 and not bad, f"failures: {bad}")


def test_criterion_10_telescoping():
    results = verify.check_telescoping((5, 7, 11, 13), 50)
    bad = [r.name for r in results if not r.passed]
    report("10 telescoping identity, exact, ell in {5,7,11,13}", not bad,
           f"failures: {bad}")
