"""Exact local densities, census tables and certified lower bounds for
elliptic curves over Q in short Weierstrass form.

Importing the package loads only `_version`.  Every public name resolves on
first use through the module __getattr__ (PEP 562), which imports the one
submodule `_PUBLIC` lists it under and binds the name here, so a caller loads
only what it uses and later reads are plain attribute reads."""

import importlib

from ._version import __version__

_PUBLIC = {
    "errors": ("DomainError",),
    "intervals": ("QInterval",),
    "ffcurve": ("ClassCounts", "PointClass", "ResidueClass", "classify_residue", "count_points",
                "discriminant_mod", "residue_class_counts"),
    "localdata": ("KodairaType", "ReductionKind", "TamagawaAnomalyCount", "is_globally_minimal",
                  "is_minimal_at", "is_split_multiplicative", "kodaira_type", "naive_height",
                  "tamagawa_anomaly_count", "tamagawa_p_part", "valuation"),
    "density": ("congruence_density", "density_good", "density_In", "density_In_at_least",
                "minimal_density", "valuation_box_measure"),
    "bounds": ("BoundReport", "FamilyDensity", "euler_divisibility_bound",
               "growth_family_density", "kodaira_multiple_weight", "mu_lambda_bound",
               "prime_symmetric_sum", "selmer_growth_bound", "zeta_reciprocal"),
    "survey": ("GrowthCensus", "HeightWindow", "SurveyRecord", "SurveySummary",
               "empirical_euler_divisibility", "empirical_kodaira_density",
               "empirical_minimal_density", "empirical_selmer_growth", "enumerate_curves"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
