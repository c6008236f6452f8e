"""randpivot: inference from multinomial-weight randomized pivots.

Small samples: G-type pivots give confidence intervals for the population
mean; given the weights, their normal-approximation error is bounded in
probability at the rate 1/n when the weight total equals the sample size
(arXiv:1404.5671).  Big data: T-type pivots give intervals for the full-data mean
(and EDF values) computable from a small sub-sample of records.

Importing the package loads none of its modules, nor numpy: each exported
name and each submodule is imported on first access (PEP 562), so a
command or script pays only for the modules it uses.
"""
import sys

# Each submodule with the names the package exports from it.
_EXPORTS = {
    "_csv": ("read_csv_column",),
    "bigdata": ("DatasetHandle", "IndexSample", "SubsampleReport", "bigdata_ci_edf",
                "bigdata_ci_mean", "draw_index_sample", "ingest_csv", "open_dataset",
                "write_dataset"),
    "bounds": ("BoundInputs", "BoundResult", "chebyshev_p_s2", "hypothesis_margin", "rate",
               "error_bound"),
    "edf": ("EdfPoint", "ci_df", "ci_edf", "dkw_bound", "edf_pivot", "edf_point"),
    "errors": ("BadMoments", "BadParams", "DatasetFormatError", "DatasetTooSmall",
               "DegenerateWeights", "DomainError", "EpsOutOfRange", "HypothesisViolated",
               "MissingColumn", "MissingF", "MissingMu", "NonFiniteValue", "NumericOverflow",
               "ParseError", "RandPivotError", "TooFewObservations", "ZeroScale"),
    "intervals": ("ConfidenceInterval", "Fixed", "LogLog", "PowerDelta", "SizingPolicy",
                  "ci_mu", "ci_xbar", "critical_z", "parse_policy", "subsample_size"),
    "mc": ("CoverageReport", "DistributionSpec", "ProportionReport", "coverage_study",
           "gen_sample", "kolmogorov_distance", "parse_dist", "proportion_study",
           "student_t_cutoff"),
    "pivots": ("PivotKind", "RandomizedStats", "SampleStats", "pivot", "randomized_stats",
               "sample_stats"),
    "rng": ("stream",),
    "weights": ("WeightStats", "WeightVector", "draw_weights", "enumerate_weight_vectors",
                "exact_expectation_abs_dev", "exact_weight_moment", "weight_stats"),
}
# Every lazily loaded name, a submodule's own name included, to its submodule.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(name for name in _MODULE_OF if not name.startswith("_"))
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _MODULE_OF[name]
    qualified = f"{__name__}.{module}"
    __import__(qualified)  # the import statement's own path, so -X importtime lists it
    value = sys.modules[qualified]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
