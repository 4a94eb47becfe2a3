"""The public records are immutable values: equal and hashed by value, closed
to assignment, and shown as Name(field=value, ...); the one that validates
its input checks it on every construction."""

from fractions import Fraction

import pytest

from ecstats import bounds, ffcurve, localdata, survey
from ecstats.intervals import QInterval

_Q = QInterval(Fraction(1, 3), 1)
_KT = localdata.KodairaType(localdata.ReductionKind.MULTIPLICATIVE, 11, 1)
_TERMS = bounds.BoundTerms(_Q, _Q, _Q, Fraction(1), Fraction(2))

# name -> (class, arguments of one record, its first field); the test builds it twice
RECORDS = {
    "QInterval": (QInterval, (1, 2), "lo"),
    "ResidueClass": (ffcurve.ResidueClass, (ffcurve.PointClass.ORDINARY, 9), "kind"),
    "ClassCounts": (ffcurve.ClassCounts, (5, 13, 3, 4, 5), "p"),
    "KodairaType": (localdata.KodairaType, (localdata.ReductionKind.GOOD, 5), "kind"),
    "TamagawaAnomalyCount": (localdata.TamagawaAnomalyCount,
                             (0, 1, 1, 2, ((11, _KT),), ffcurve.PointClass.ANOMALOUS),
                             "tamagawa_primes"),
    "BoundReport": (bounds.BoundReport, ("selmer_growth", 7, 1, 170, 200, _Q, _TERMS), "kind"),
    "FamilyDensity": (bounds.FamilyDensity, (7, 1, (5,), False, _Q, _Q), "p"),
    "HeightWindow": (survey.HeightWindow, (1000, 6, 6), "x"),
    "SurveyRecord": (survey.SurveyRecord, (-1, 5, 675, 671, True), "a"),
    "SurveySummary": (survey.SurveySummary,
                      ("minimal_density", 1000, {"pairs": 169}, Fraction(1, 2), _Q), "kind"),
    "GrowthCensus": (survey.GrowthCensus,
                     (7, 1000, {"pairs": 169}, {0: 1}, {0: 1}, {0: 1}, {5: {0: 1}}), "p"),
}
HOLDS_A_DICT = {"SurveySummary", "GrowthCensus"}
PINNED_REPR = {
    "QInterval": "QInterval[1, 2]",
    "ClassCounts": "ClassCounts(p=5, ordinary=13, anomalous=3, supersingular=4, singular=5)",
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_values(name):
    cls, args, field = RECORDS[name]
    one, two = cls(*args), cls(*args)
    assert one == two and one is not two
    if name in HOLDS_A_DICT:
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two) and len({one, two}) == 1
    with pytest.raises(AttributeError):
        setattr(one, field, getattr(two, field))
    assert one == two
    if name in PINNED_REPR:
        assert repr(one) == PINNED_REPR[name]
    else:
        assert repr(one).startswith(f"{name}({field}=")


def test_validating_records_check_every_construction():
    """QInterval holds Fractions with 0 <= lo <= hi; mu_lambda_bound differs
    from selmer_growth_bound in its kind alone."""
    iv = QInterval(1, 2)
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    for lo, hi in ((2, 1), (-1, 1), (Fraction(-1, 2), 0)):
        with pytest.raises(ValueError):
            QInterval(lo, hi)
        with pytest.raises(ValueError):
            iv._replace(lo=lo, hi=hi)
    summary = survey.SurveySummary(*RECORDS["SurveySummary"][1])
    with pytest.raises(TypeError):
        summary.extras["note"] = "a default no caller can change"
    growth, mu_lambda = bounds.selmer_growth_bound(5, 2, 800), bounds.mu_lambda_bound(5, 2, 800)
    assert (growth.kind, mu_lambda.kind) == ("selmer_growth", "mu_lambda")
    assert mu_lambda._replace(kind=growth.kind) == growth
