"""randpivot: inference from multinomial-weight randomized pivots.

Small samples: G-type pivots give confidence intervals for the population
mean; given the weights, their normal-approximation error is bounded in
probability at the rate 1/n when the weight total equals the sample size
(arXiv:1404.5671).  Big data: T-type pivots give intervals for the full-data mean
(and EDF values) computable from a small sub-sample of records.
"""
from .bigdata import (DatasetHandle, IndexSample, SubsampleReport,
                      bigdata_ci_edf, bigdata_ci_mean, draw_index_sample,
                      ingest_csv, open_dataset, read_csv_column, write_dataset)
from .bounds import (BoundInputs, BoundResult, chebyshev_p_s2, hypothesis_margin, rate,
                     error_bound)
from .edf import EdfPoint, ci_df, ci_edf, dkw_bound, edf_pivot, edf_point
from .errors import (BadMoments, BadParams, DatasetFormatError,
                     DatasetTooSmall, DegenerateWeights, DomainError,
                     EpsOutOfRange, HypothesisViolated, MissingColumn,
                     MissingF, MissingMu, NonFiniteValue, ParseError,
                     RandPivotError, TooFewObservations, ZeroScale)
from .intervals import (ConfidenceInterval, Fixed, LogLog, PowerDelta,
                        SizingPolicy, ci_mu, ci_xbar, critical_z,
                        parse_policy, subsample_size)
from .mc import (CoverageReport, DistributionSpec, ProportionReport,
                 coverage_study, gen_sample, kolmogorov_distance, parse_dist,
                 proportion_study, student_t_cutoff)
from .pivots import (PivotKind, RandomizedStats, SampleStats, pivot,
                     randomized_stats, sample_stats)
from .rng import stream
from .weights import (WeightStats, WeightVector, draw_weights,
                      enumerate_weight_vectors, exact_expectation_abs_dev,
                      exact_weight_moment, weight_stats)

__version__ = "0.1.0"
