"""Exact local densities, census tables and certified lower bounds for
elliptic curves over Q in short Weierstrass form.

Importing the package loads no numpy: the survey names, whose module needs
it, resolve on first use through the module __getattr__ (PEP 562)."""

from ._version import __version__
from .errors import DomainError
from .intervals import QInterval
from .ffcurve import (ClassCounts, PointClass, ResidueClass, classify_residue, count_points,
                      discriminant_mod, residue_class_counts)
from .localdata import (KodairaType, ReductionKind, TamagawaAnomalyCount, is_globally_minimal,
                        is_minimal_at, is_split_multiplicative, kodaira_type, naive_height,
                        tamagawa_anomaly_count, tamagawa_p_part, valuation)
from .density import (CongruenceDatum, congruence_density, density_good, density_In,
                      density_In_at_least, minimal_density, prescribed_In_density,
                      valuation_box_measure)
from .bounds import (BoundReport, FamilyDensity, euler_divisibility_bound,
                     growth_family_density, kodaira_multiple_weight, mu_lambda_bound,
                     prime_symmetric_sum, selmer_growth_bound, zeta_reciprocal)

_SURVEY_NAMES = (
    "GrowthCensus", "HeightWindow", "SurveyRecord", "SurveySummary", "count_pairs",
    "empirical_euler_divisibility", "empirical_kodaira_density", "empirical_minimal_density",
    "empirical_selmer_growth", "enumerate_curves",
)


def __getattr__(name: str):
    if name in _SURVEY_NAMES:
        from . import survey

        return getattr(survey, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DomainError", "QInterval",
    "ClassCounts", "PointClass", "ResidueClass", "classify_residue", "count_points",
    "discriminant_mod", "residue_class_counts",
    "KodairaType", "ReductionKind", "TamagawaAnomalyCount", "is_globally_minimal",
    "is_minimal_at", "is_split_multiplicative", "kodaira_type", "naive_height",
    "tamagawa_anomaly_count", "tamagawa_p_part", "valuation",
    "CongruenceDatum", "congruence_density", "density_good", "density_In",
    "density_In_at_least", "minimal_density", "prescribed_In_density", "valuation_box_measure",
    "BoundReport", "FamilyDensity", "euler_divisibility_bound", "growth_family_density",
    "kodaira_multiple_weight", "mu_lambda_bound", "prime_symmetric_sum", "selmer_growth_bound",
    "zeta_reciprocal",
    *_SURVEY_NAMES,
]
