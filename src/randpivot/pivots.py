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

One row kernel, _studentized, evaluates every pivot (these four, the EDF
pivots on indicator data, the studies' blocks) and takes its row sum as a
parameter: a single sample is one row summed exactly, like math.fsum
(_exact_rows); a study's block is summed by numpy's np.add.reduce.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateWeights, MissingMu, NonFiniteValue, TooFewObservations, ZeroScale
from .weights import WeightVector

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
_FINITE_CHUNK = 1 << 16  # values scanned per step of the finiteness check
_RowSum = Callable[[np.ndarray], np.ndarray]  # sums a matrix over its last axis


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
        return math.fsum(a.tolist())
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
    shift = base - _EXP_BIAS - 53
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def _exact_rows(a: np.ndarray) -> np.ndarray:
    """The exact sum of each row of a matrix: _exact_sum row by row."""
    return np.fromiter(map(_exact_sum, a), np.float64, len(a))


def _check_finite(values: np.ndarray, indices: np.ndarray | None = None) -> None:
    """Raise NonFiniteValue at the first NaN or infinity, naming its record
    (the position in values, or indices[position] when given).  Scans in
    chunks, so the temporary mask stays small however long values is."""
    flat = values.reshape(-1)
    if flat.size <= _FINITE_CHUNK and np.isfinite(flat).all():
        return  # one call for a short array; the scan below finds a bad value
    for start in range(0, flat.size, _FINITE_CHUNK):
        finite = np.isfinite(flat[start:start + _FINITE_CHUNK])
        if not finite.all():
            j = start + int(np.argmin(finite))
            raise NonFiniteValue(j if indices is None else int(indices[j]),
                                 repr(float(flat[j])))


def _check_n(n: int) -> None:
    """The sample size every study and every in-memory interval command needs."""
    if n < 2:
        raise TooFewObservations(f"need at least 2 observations, got n={n}")


def _sample(x, w: WeightVector | None = None) -> np.ndarray:
    """x as sample data enters the library: float64, finite, of w's length if given."""
    x = np.asarray(x, dtype=np.float64)
    if w is not None and x.size != w.n:
        raise ValueError(f"data length {x.size} != weight length {w.n}")
    _check_finite(x)
    return x


def _row_moments(x: np.ndarray, rowsum: _RowSum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row means, divisor-n variances S_n^2 and divisor-(n-1) s.d.s.

    One row sum and one centered sum of squares serve all three.  Under
    np.add.reduce they follow the operations of numpy's own mean, var and
    std, so each equals x.mean(axis=1), x.var(axis=1) and
    x.std(axis=1, ddof=1) bitwise.
    """
    n = x.shape[1]
    mean = rowsum(x) / n
    sq = x - mean[:, None]
    np.square(sq, out=sq)
    css = rowsum(sq)
    return mean, css / n, np.sqrt(css / (n - 1))


def _reweighted(w: np.ndarray, x: np.ndarray, m: int,
                rowsum: _RowSum) -> tuple[np.ndarray, np.ndarray]:
    """Row means and divisor-m variances of x reweighted by the counts w:
    the sub-sample mean and S_{m,n}^2 of each row."""
    rmean = rowsum(w * x) / m
    return rmean, rowsum(w * (x - rmean[:, None]) ** 2) / m


def _studentized(w: np.ndarray, m: int, data: np.ndarray, center: float | None,
                 scale2: np.ndarray, rowsum: _RowSum) -> tuple[np.ndarray, np.ndarray]:
    """The one pivot formula over rows: sum d_i data_i, or sum |d_i|
    (data_i - center) given a center, over sqrt(scale2) * sqrt(sum d_i^2),
    with d_i = w_i/m - 1/n from each row of the (integer) counts w.
    Returns the values and each row's sum d_i^2; a row where either
    vanishes gets a non-finite value for the caller to refuse or mask."""
    dev = w / m
    dev -= 1.0 / data.shape[1]
    ssq = rowsum(dev * dev)
    if center is None:
        dev *= data
    else:  # ssq is taken, so dev's buffer takes the numerator's terms
        np.abs(dev, out=dev)
        dev *= data - center
    with np.errstate(divide="ignore", invalid="ignore"):
        return rowsum(dev) / (np.sqrt(scale2) * np.sqrt(ssq)), ssq


def _exact_pivot(w: WeightVector, data: np.ndarray, center: float | None,
                 scale2: float, zero_scale: str) -> float:
    """One exactly summed row of _studentized; typed errors where it is undefined."""
    vals, ssq = _studentized(w.counts[None], w.m, data[None], center,
                             np.array([scale2]), _exact_rows)
    if ssq[0] == 0.0:
        raise DegenerateWeights()
    if scale2 <= 0.0:
        raise ZeroScale(zero_scale)
    return float(vals[0])


def sample_stats(x) -> SampleStats:
    """Mean and divisor-n variance of a sample with at least two points."""
    x = _sample(x).reshape(1, -1)
    _check_n(x.size)
    mean, var, _ = _row_moments(x, _exact_rows)
    return SampleStats(n=x.size, mean=float(mean[0]), var_biased=float(var[0]))


def randomized_stats_from_nonzero(values_nz: np.ndarray, counts_nz: np.ndarray,
                                  m: int) -> tuple[float, float]:
    """(rmean, rvar) from the sub-sample values and their counts.

    Shared by the in-memory and out-of-core paths; with matching index
    order the two produce bitwise-identical results.
    """
    rmean, rvar = _reweighted(np.asarray(counts_nz)[None],
                              np.asarray(values_nz, dtype=np.float64)[None], m, _exact_rows)
    return float(rmean[0]), float(rvar[0])


def _ratio_estimate(x: np.ndarray, w: WeightVector) -> float | None:
    """sum |d_i| x_i / sum |d_i|, the ratio estimator of mu; None for
    degenerate weights."""
    abs_dev = np.abs(w.counts / w.m - 1.0 / w.n)
    sabs = _exact_sum(abs_dev)
    return _exact_sum(abs_dev * x) / sabs if sabs > 0.0 else None


def randomized_stats(x, w: WeightVector) -> RandomizedStats:
    """Randomized sample mean/variance and the ratio estimator of mu."""
    x = _sample(x, w)
    ratio = _ratio_estimate(x, w)
    idx, counts_nz = w.nonzero()
    rmean, rvar = randomized_stats_from_nonzero(x[idx], counts_nz, w.m)
    return RandomizedStats(rmean=rmean, rvar=rvar, _ratio_mean=ratio)


def _scale2(x: np.ndarray, w: WeightVector, subsample: bool) -> float:
    """S_{m,n}^2 if subsample, else S_n^2, of a checked sample: the squared scale."""
    if subsample:  # zero counts add exact zeros to each exact sum
        return float(_reweighted(w.counts[None], x[None], w.m, _exact_rows)[1][0])
    _check_n(x.size)
    return float(_row_moments(x[None], _exact_rows)[1][0])


def pivot(kind: PivotKind, x, w: WeightVector, mu: float | None = None) -> float:
    """Evaluate one randomized pivot on a (data, weights) pair."""
    kind = PivotKind(kind)
    if kind.needs_mu and mu is None:
        raise MissingMu(f"{kind.value} requires the hypothesized mean mu")
    if mu is not None and not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    x = _sample(x, w)
    return _exact_pivot(w, x, mu if kind.needs_mu else None,
                        _scale2(x, w, kind.uses_subsample_scale), f"{kind.value} scale is zero")
