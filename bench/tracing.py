"""In-process spans around the layers of ecstats, installed from outside.

`Tracer.install` replaces each function named in `LAYERS` with a wrapper
that records a span (name, start, end, parent) and `uninstall` puts the
original back; the package's source is not modified.  A function is replaced
wherever an ecstats module holds it, so `from .arith import factorize` in
another module is traced too.  Generator functions get one span per item
produced, so the time spent producing items is charged to the generator and
not to its consumer.

Spans are kept in flat arrays and reduced to per-layer metrics after a
traced pass.  A layer's self time is its spans' duration minus the part
covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute): the public entry points of each layer, plus the
# private growth-census pass that `survey` runs for its histograms.
LAYERS = (
    ("cli", "main"),
    ("ffcurve", "residue_class_counts"),
    ("ffcurve", "class_code_table"),
    ("ffcurve", "point_count_table"),
    ("ffcurve", "count_points"),
    ("survey", "empirical_minimal_density"),
    ("survey", "empirical_kodaira_density"),
    ("survey", "_growth_census"),
    ("survey", "empirical_selmer_growth"),
    ("survey", "empirical_euler_divisibility"),
    ("survey", "enumerate_curves"),
    ("survey", "write_csv"),
    ("survey", "SurveySummary.to_json"),
    ("density", "congruence_density"),
    ("localdata", "kodaira_type"),
    ("localdata", "tamagawa_anomaly_count"),
    ("localdata", "euler_term_valuation"),
    ("arith", "factorize"),
    ("verify", "run_suite"),
    ("bounds", "selmer_growth_bound"),
    ("bounds", "euler_divisibility_bound"),
    ("bounds", "mu_lambda_bound"),
    ("bounds", "prime_symmetric_sum"),
    ("bounds", "zeta_enclosure"),
    ("bounds", "class_weights"),
    ("bounds", "BoundReport.to_json"),
    ("intervals", "round_fraction"),
)

SURVEY_PASSES = ("survey.empirical_minimal_density", "survey.empirical_kodaira_density",
                 "survey._growth_census")

# per-layer metric -> span name whose self time it reports
SELF_TIMES = {
    "ffcurve.residue_class_counts_s": "ffcurve.residue_class_counts",
    "ffcurve.class_code_table_s": "ffcurve.class_code_table",
    "ffcurve.point_count_table_s": "ffcurve.point_count_table",
    "survey.minimal_pass_s": "survey.empirical_minimal_density",
    "survey.kodaira_pass_s": "survey.empirical_kodaira_density",
    "survey.growth_census_s": "survey._growth_census",
    "survey.to_json_s": "survey.SurveySummary.to_json",
    "density.congruence_density_s": "density.congruence_density",
    "survey.enumerate_curves_s": "survey.enumerate_curves",
    "survey.write_csv_s": "survey.write_csv",
    "localdata.kodaira_type_s": "localdata.kodaira_type",
    "localdata.tamagawa_anomaly_count_s": "localdata.tamagawa_anomaly_count",
    "localdata.euler_term_valuation_s": "localdata.euler_term_valuation",
    "arith.factorize_s": "arith.factorize",
    "verify.run_suite_s": "verify.run_suite",
    "bounds.prime_symmetric_sum_s": "bounds.prime_symmetric_sum",
    "bounds.zeta_enclosure_s": "bounds.zeta_enclosure",
    "bounds.class_weights_s": "bounds.class_weights",
    "bounds.to_json_s": "bounds.BoundReport.to_json",
    "intervals.round_fraction_s": "intervals.round_fraction",
}

# every per-layer metric with its unit
LAYER_UNITS = {
    **{name: "s" for name in SELF_TIMES},
    "ffcurve.census_pairs_per_s": "1/s",
    "ffcurve.count_points_calls": "count",
    "survey.pairs_per_s": "1/s",
    "arith.factorize_calls": "count",
    "bounds.sym_lo_denominator_bits": "bits",
    "bounds.to_json_failed": "count",
    "trace.overhead_frac": "frac",
}


def package_modules() -> dict:
    names = ("cli", "ffcurve", "survey", "density", "localdata", "arith",
             "verify", "bounds", "intervals", "reference_tables", "errors")
    return {"ecstats": importlib.import_module("ecstats"),
            **{name: importlib.import_module(f"ecstats.{name}") for name in names}}


def package_caches(modules: dict) -> list:
    """Every functools cache in the package.  Collect them before `install`,
    which hides a cached function behind its wrapper."""
    found = {id(value): value for module in modules.values()
             for value in vars(module).values()
             if callable(getattr(value, "cache_clear", None))}
    return list(found.values())


class Tracer:
    """Spans of traced commands, plus the counts observed at the same calls."""

    def __init__(self, modules: dict):
        self.names: list[str] = []
        # (owner, attribute, original, wrapper) for every place a layer is held
        self._patches: list[tuple[object, str, object, object]] = []
        for module_name, attr in LAYERS:
            module = modules[module_name]
            name = f"{module_name}.{attr}"
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = vars(owner)[method]
                self._patches.append((owner, method, original, self._wrap(name, original)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            self._patches += [(holder, key, original, wrapper)
                              for holder in modules.values()
                              for key, value in vars(holder).items() if value is original]
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def _open(self, name_id: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observe = _OBSERVERS.get(name)
        cache_info = getattr(fn, "cache_info", None)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    sid = self._open(name_id)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self._close(sid)
            if observe is not None:
                computed = cache_info is None or cache_info().misses > misses
                observe(self, result, computed)
            return result
        return traced

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += duration[i]
        totals: dict[str, float] = {}
        for i, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            totals[name] = totals.get(name, 0.0) + duration[i] - covered[i]
        return totals

    def calls(self) -> Counter:
        return Counter(self.names[i] for i in self.span_name)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset
        (everything except trace.overhead_frac)."""
        own = self.self_times()
        calls = self.calls()
        out = {metric: own.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        out["ffcurve.census_pairs_per_s"] = _rate(
            self.counts["census_pairs"], own.get("ffcurve.residue_class_counts", 0.0))
        out["ffcurve.count_points_calls"] = calls["ffcurve.count_points"]
        out["survey.pairs_per_s"] = _rate(
            self.counts["survey_pairs"], sum(own.get(name, 0.0) for name in SURVEY_PASSES))
        out["arith.factorize_calls"] = calls["arith.factorize"]
        out["bounds.sym_lo_denominator_bits"] = self.maxima["sym_lo_denominator_bits"]
        out["bounds.to_json_failed"] = self.errors["bounds.BoundReport.to_json"]
        return out


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _census_pairs(tracer, result, computed):
    if computed:
        tracer.counts["census_pairs"] += result.p * result.p


def _survey_pairs(tracer, result, computed):
    if computed:
        tracer.counts["survey_pairs"] += result.counts["pairs"]


def _sym_bits(tracer, result, computed):
    bits = result.lo.denominator.bit_length()
    tracer.maxima["sym_lo_denominator_bits"] = max(tracer.maxima["sym_lo_denominator_bits"], bits)


_OBSERVERS = {
    "ffcurve.residue_class_counts": _census_pairs,
    "survey.empirical_minimal_density": _survey_pairs,
    "survey.empirical_kodaira_density": _survey_pairs,
    "survey._growth_census": _survey_pairs,
    "bounds.prime_symmetric_sum": _sym_bits,
}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
