"""Sample statistics, randomized statistics, and the four randomized pivots.

Given data x_1, ..., x_n and a weight vector with deviations
d_i = w_i/m - 1/n, the pivots are

    T1 = sum d_i x_i           / (S_n     * sqrt(sum d_i^2))
    T2 = sum d_i x_i           / (S_{m,n} * sqrt(sum d_i^2))
    G1 = sum |d_i| (x_i - mu)  / (S_n     * sqrt(sum d_i^2))
    G2 = sum |d_i| (x_i - mu)  / (S_{m,n} * sqrt(sum d_i^2))

T-pivots target the sample mean, G-pivots target a hypothesized
population mean mu.  S_n^2 is the sample variance with divisor n (NOT the
n-1 most libraries default to), and S_{m,n}^2 is the weight-reweighted
sub-sample variance, computable from the w_i != 0 entries alone.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeights, MissingMu, TooFewObservations, ZeroScale
from .weights import WeightStats, WeightVector, weight_stats

__all__ = [
    "SampleStats",
    "RandomizedStats",
    "PivotKind",
    "sample_stats",
    "randomized_stats",
    "randomized_stats_from_nonzero",
    "pivot",
]

_EXACT_MIN_TERMS = 640  # below this many terms math.fsum is faster (measured)
_EXACT_CHUNK = 1 << 16  # terms per bincount pass: every bucket stays below 2^43
_EXP_BIAS = 1074  # np.frexp exponents of finite doubles lie in [-1073, 1024]
_FSUM_NEGATIVE_ZERO = math.copysign(1.0, math.fsum([-0.0, -0.0])) < 0.0


class PivotKind(enum.Enum):
    T1 = "t1"
    T2 = "t2"
    G1 = "g1"
    G2 = "g2"

    @property
    def needs_mu(self) -> bool:
        return self in (PivotKind.G1, PivotKind.G2)

    @property
    def uses_subsample_scale(self) -> bool:
        return self in (PivotKind.T2, PivotKind.G2)


@dataclass(frozen=True)
class SampleStats:
    """Sample mean and divisor-n sample variance."""

    n: int
    mean: float
    var_biased: float

    @property
    def sd(self) -> float:
        return math.sqrt(self.var_biased)

    @property
    def zero_variance(self) -> bool:
        return self.var_biased == 0.0


@dataclass(frozen=True)
class RandomizedStats:
    """Weight-reweighted mean/variance plus the absolute-deviation ratio mean.

    ``rmean`` and ``rvar`` need only the entries with w_i != 0.
    ``ratio_mean`` (the unbiased-given-weights estimator of mu) needs the
    whole sample; it is undefined for degenerate weights.
    """

    rmean: float
    rvar: float
    _ratio_mean: float | None = field(repr=False, default=None)

    @property
    def rsd(self) -> float:
        return math.sqrt(self.rvar)

    @property
    def ratio_mean(self) -> float:
        if self._ratio_mean is None:
            raise DegenerateWeights("ratio mean undefined: all weight deviations are zero")
        return self._ratio_mean


def _exact_sum(a) -> float:
    """math.fsum(a), bitwise, vectorized: the exact sum rounded once.

    Each term is m * 2^(e-53) with m = frexp mantissa * 2^53, an integer
    below 2^53, split into halves hi * 2^26 + lo of 27 and 26 bits.  Per
    chunk, np.bincount sums the halves per exponent; every partial sum is
    an integer below 2^43, so exact.  The int64 chunk totals (exact up to
    2^36 terms) are combined in Python integers and rounded once by int/int
    true division, which is correctly rounded, like fsum.  Short input,
    non-finite terms and sums that could overflow go to math.fsum, so the
    result and any exception are fsum's own.  An exact zero takes fsum's
    sign without a walk over the terms: -0.0 only for terms that are all
    -0.0, and only where this interpreter's fsum keeps that sign (3.11's
    returns 0.0).
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if a.size < _EXACT_MIN_TERMS:
        return math.fsum(a)
    buckets = 2 * _EXP_BIAS + 1
    hi = np.zeros(buckets, dtype=np.int64)
    lo = np.zeros(buckets, dtype=np.int64)
    for start in range(0, a.size, _EXACT_CHUNK):
        mant, exp = np.frexp(a[start:start + _EXACT_CHUNK])
        mant = np.ldexp(mant, 53)
        top = np.trunc(np.ldexp(mant, -26))
        exp += _EXP_BIAS
        h = np.bincount(exp, top, buckets)
        if not np.isfinite(h).all():
            return math.fsum(a)
        hi += h.astype(np.int64)
        lo += np.bincount(exp, mant - np.ldexp(top, 26), buckets).astype(np.int64)
    used = np.flatnonzero(hi | lo)
    if used.size == 0:  # every term is a zero
        return -0.0 if _FSUM_NEGATIVE_ZERO and np.signbit(a).all() else 0.0
    # |sum| < size * 2^(top exponent) <= 2^1022 rules out fsum's
    # intermediate overflow
    if used[-1] - _EXP_BIAS + a.size.bit_length() > 1022:
        return math.fsum(a)
    base = int(used[0])
    total = 0
    for e, h, l in zip(used.tolist(), hi[used].tolist(), lo[used].tolist()):
        total += ((h << 26) + l) << (e - base)
    if total == 0:  # nonzero terms that cancel: fsum's zero is +0.0
        return 0.0
    shift = base - _EXP_BIAS - 53
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def sample_stats(x) -> SampleStats:
    """Mean and divisor-n variance of a sample with at least two points."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 2:
        raise TooFewObservations(f"need at least 2 observations, got {n}")
    mean = _exact_sum(x) / n
    var = _exact_sum((x - mean) ** 2) / n
    return SampleStats(n=n, mean=mean, var_biased=var)


def randomized_stats_from_nonzero(values_nz: np.ndarray, counts_nz: np.ndarray,
                                  m: int) -> tuple[float, float]:
    """(rmean, rvar) from the sub-sample values and their counts.

    Shared by the in-memory and out-of-core paths; with matching index
    order the two produce bitwise-identical results.
    """
    values_nz = np.asarray(values_nz, dtype=np.float64)
    counts_nz = np.asarray(counts_nz, dtype=np.float64)
    rmean = _exact_sum(counts_nz * values_nz) / m
    rvar = _exact_sum(counts_nz * (values_nz - rmean) ** 2) / m
    return rmean, rvar


def _ratio_estimate(x, w: WeightVector) -> float | None:
    """sum |d_i| x_i / sum |d_i|, the ratio estimator of mu; None for
    degenerate weights."""
    x = np.asarray(x, dtype=np.float64)
    if x.size != w.n:
        raise ValueError(f"data length {x.size} != weight length {w.n}")
    abs_dev = np.abs(w.counts / w.m - 1.0 / w.n)
    sabs = _exact_sum(abs_dev)
    return _exact_sum(abs_dev * x) / sabs if sabs > 0.0 else None


def randomized_stats(x, w: WeightVector) -> RandomizedStats:
    """Randomized sample mean/variance and the ratio estimator of mu."""
    x = np.asarray(x, dtype=np.float64)
    ratio = _ratio_estimate(x, w)
    idx, counts_nz = w.nonzero()
    rmean, rvar = randomized_stats_from_nonzero(x[idx], counts_nz, w.m)
    return RandomizedStats(rmean=rmean, rvar=rvar, _ratio_mean=ratio)


def _scale2(x: np.ndarray, w: WeightVector, subsample: bool) -> float:
    """S_{m,n}^2 when subsample, else S_n^2: the squared studentizing scale."""
    if subsample:
        idx, counts_nz = w.nonzero()
        return randomized_stats_from_nonzero(x[idx], counts_nz, w.m)[1]
    return sample_stats(x).var_biased


def _studentized(w: WeightVector, wstats: WeightStats, data: np.ndarray,
                 center: float | None, scale2: float) -> float:
    """The one pivot sum: sum d_i data_i, or sum |d_i| (data_i - center)
    when a center is given, over sqrt(scale2) * sqrt(sum d_i^2)."""
    dev = w.counts / w.m - 1.0 / w.n
    if center is None:
        num = _exact_sum(dev * data)
    else:
        num = _exact_sum(np.abs(dev) * (data - center))
    return num / (math.sqrt(scale2) * math.sqrt(wstats.sum_sq_dev))


def pivot(kind: PivotKind, x, w: WeightVector, mu: float | None = None) -> float:
    """Evaluate one randomized pivot on a (data, weights) pair."""
    kind = PivotKind(kind)
    if kind.needs_mu and mu is None:
        raise MissingMu(f"{kind.value} requires the hypothesized mean mu")

    x = np.asarray(x, dtype=np.float64)
    if x.size != w.n:
        raise ValueError(f"data length {x.size} != weight length {w.n}")
    wstats = weight_stats(w)
    if wstats.degenerate:
        raise DegenerateWeights("all weights equal m/n; pivot denominators vanish")
    scale2 = _scale2(x, w, kind.uses_subsample_scale)
    if scale2 == 0.0:
        raise ZeroScale(f"{kind.value} scale is zero")
    return _studentized(w, wstats, x, mu if kind.needs_mu else None, scale2)
