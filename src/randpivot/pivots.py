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
pivots on indicator data, the studies' blocks) over the last axis and
takes its row sum as a parameter: a single sample is one 1-D row summed
exactly, like math.fsum (_exact_sum); a study's block is column-major,
its rows summed left to right by numpy's own reduction (mc._rowsum).
Temporaries take their operands' layout, so every row sum of a block sees
a column-major array.  A square past float64 is inf, without a warning.

A row sum is rowsum(*operands, terms=None, out=None): the sums over the
last axis of the one operand, or of terms(*operands, out=...), a recipe
such as the reweighted moments' w x and w (x - mean)^2.  A study's block
forms the terms once, in its work buffer out; the exact sum forms them
2^16 columns at a time in its own, so a big-data query makes no
query-length temporary for them.
"""
from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import _pool
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

_EXACT_MIN_TERMS = 1300  # below this many terms math.fsum is faster (see _exact_sum)
_EXACT_CHUNK = 1 << 16  # terms per bincount pass: every bucket stays below 2^43
_EXACT_FLUSH = 1 << 10  # chunks whose float bucket sums stay exact, below 2^53 units
_HI_MASK = ~np.uint64((1 << 26) - 1)  # clears the 26 low stored mantissa bits
_SAFE_FIELDS = 2021  # exponent fields from here (2^998 up) could overflow a bucket sum
# A key's hi units are 2^(max(field, 1) - 1049), its lo units 2^(max(field, 1) - 1075):
# _SCALE takes a bucket sum to an integer of those units (int32, np.ldexp's fast loop),
# _SHIFT that integer to units of 2^-1074.
_SHIFT = np.maximum(np.arange(4096) & 2047, 1) - 1 + np.array([[26], [0]])
_SCALE = (1074 - _SHIFT).astype(np.intc)
_FSUM_NEGATIVE_ZERO = math.copysign(1.0, math.fsum([-0.0, -0.0])) < 0.0
_FINITE_CHUNK = 1 << 16  # values scanned per step of the finiteness check
_Terms = Callable[..., np.ndarray]  # terms(*operands, out=None): a row sum's terms
_RowSum = Callable[..., np.ndarray | float]  # rowsum(*operands, terms=None, out=None)


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


def _exact_sum(*operands, terms: _Terms | None = None, out=None) -> float:
    """math.fsum of the terms, bitwise, vectorized: their exact sum rounded once.

    The terms are operands[0], flattened, or terms(*operands, out=...) of
    1-D operands broadcast to one row, formed _EXACT_CHUNK columns at a
    time in one reused buffer (a study block's out is not used here).  A
    row of more than _pool._SPLIT_ITEMS terms is cut at the chunk boundary
    nearest its middle, and each half summed on its own thread
    (_pool.halves) into an exact partial; the partials are added as Python
    ints and rounded once, so where the row is cut changes no bit.
    Below _EXACT_MIN_TERMS fsum is faster: on 2 cores (min of 7 timeit
    runs) fsum against this path took 35 against 49 us at 1,000 normal
    terms, 52 against 51 at 1,400 and 76 against 55 at 2,000; 45 against
    45 us at 1,200 lognormal terms and 49 against 46 at 1,300.

    Mask split: a chunk's uint64 view gives each term its key, the sign and
    exponent field (bits >> 52, 4,096 buckets), and its hi part, the term
    with the low 26 stored mantissa bits cleared; lo = term - hi is exact.
    The terms of a bucket share its grid, on which hi has at most 27 and lo
    at most 26 significant bits, so np.bincount's float sums of both are
    exact: below 2^43 units per chunk of 2^16 terms, below 2^53 for
    _EXACT_FLUSH chunks.  These are then scaled to int64 units by np.ldexp,
    added in Python ints and rounded once by int/int true division, which
    is correctly rounded, like fsum.  Keys of exponent field _SAFE_FIELDS
    and up (|term| >= 2^998) could sum past float64 within a flush, so
    those terms, all integers, are added as Python ints on their own.
    Non-finite terms give fsum's nan, inf or error.  Where fsum would
    raise OverflowError midway, the exact sum still rounds once: to +-inf
    only if it lies past float64.  An exact zero takes fsum's sign without
    a walk over the terms: -0.0 only for terms that are all -0.0, and only
    where this interpreter's fsum keeps that sign (3.11's returns 0.0).
    """
    if terms is None:
        operands = (np.asarray(operands[0], dtype=np.float64).reshape(-1),)
    n = max(np.shape(o)[-1] for o in operands)  # the row length they broadcast to
    if n < _EXACT_MIN_TERMS:
        with contextlib.suppress(OverflowError):  # else summed exactly below
            return math.fsum((operands[0] if terms is None else terms(*operands)).tolist())

    def chunks(start: int, stop: int) -> Iterator[np.ndarray]:
        buf = np.empty(min(stop - start, _EXACT_CHUNK))
        for lo in range(start, stop, _EXACT_CHUNK):
            cols = slice(lo, min(lo + _EXACT_CHUNK, stop))
            part = [o[..., cols] if np.shape(o)[-1] == n else o for o in operands]
            yield part[0] if terms is None else terms(*part, out=buf[:cols.stop - lo])

    def partial(start: int, stop: int) -> tuple[int, list[float]]:
        """Columns start..stop-1: their finite terms' exact sum in units of
        2^-1074, and their non-finite terms."""
        width = min(stop - start, _EXACT_CHUNK)
        keys = np.empty(width, dtype=np.uint64)
        his = np.empty(width, dtype=np.uint64)
        sums = np.zeros((2, 4096))  # per key, the sums of hi and of lo
        total, big, nonfinite = 0, 0, []
        for i, c in enumerate(chunks(start, stop), 1):
            key = np.right_shift(c.view(np.uint64), 52, out=keys[:c.size]).view(np.int64)
            half = np.bitwise_and(c.view(np.uint64), _HI_MASK, out=his[:c.size]).view(np.float64)
            h = np.bincount(key, half, 4096)
            if h.reshape(2, 2048)[:, _SAFE_FIELDS:].any():  # terms of 2^998 and up, inf or NaN
                odd = (key & 2047) >= _SAFE_FIELDS
                rare = c[odd]
                finite = np.isfinite(rare)
                nonfinite += rare[~finite].tolist()
                big += sum(map(int, rare[finite].tolist()))
                c = np.where(odd, 0.0, c)
                half[odd] = 0.0
                h = np.bincount(key, half, 4096)
            sums[0] += h
            sums[1] += np.bincount(key, np.subtract(c, half, out=half), 4096)
            if i % _EXACT_FLUSH == 0:
                total += _units(sums)
        return total + _units(sums) + (big << 1074), nonfinite

    # the chunk boundary nearest the middle cuts a long row in halves (_pool.halves)
    mid = (n + _EXACT_CHUNK) // (2 * _EXACT_CHUNK) * _EXACT_CHUNK
    parts = _pool.halves(partial, n, mid)
    nonfinite = [t for _, special in parts for t in special]
    if nonfinite:  # fsum's result from its non-finite terms alone
        return math.fsum(nonfinite)
    total = sum(units for units, _ in parts)
    if total == 0:
        return -0.0 if _FSUM_NEGATIVE_ZERO and all(np.signbit(c).all()
                                                   for c in chunks(0, n)) else 0.0
    try:
        return total / (1 << 1074)
    except OverflowError:  # the sum rounds past float64
        return math.inf if total > 0 else -math.inf


def _units(sums: np.ndarray) -> int:
    """The bucket sums' exact total in units of 2^-1074; sums is zeroed."""
    used = np.flatnonzero(sums != 0.0)  # faster than on the floats themselves
    ints = np.ldexp(sums.flat[used], _SCALE.flat[used]).astype(np.int64).tolist()
    sums.fill(0.0)
    return sum(v << s for v, s in zip(ints, _SHIFT.flat[used].tolist()))


def _check_finite(values: np.ndarray, indices: np.ndarray | None = None) -> None:
    """Raise NonFiniteValue at the first NaN or infinity, naming its record
    (the position in values, or indices[position] when given).  Scans in
    chunks, so the temporary mask stays small however long values is."""
    flat = values.reshape(-1)
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


def _row_moments(x: np.ndarray, rowsum: _RowSum,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row means, divisor-n variances S_n^2 and divisor-(n-1) s.d.s.

    One row sum and one centered sum of squares serve all three, in the
    operations of numpy's own mean, var and std: each is the sum of x, or
    of (x - mean)^2, over n, or over n - 1 under the root, with the sums
    taken by rowsum.  The squares are formed in out if given.
    """
    n = x.shape[-1]
    with np.errstate(over="ignore"):
        mean = rowsum(x) / n
        sq = np.subtract(x, np.asarray(mean)[..., None], out=out)
        np.square(sq, out=sq)
    css = rowsum(sq)
    return mean, css / n, np.sqrt(css / (n - 1))


def _weighted_squares(w: np.ndarray, x: np.ndarray, center: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The terms w (x - center)^2, formed in out if given."""
    sq = np.square(np.subtract(x, center, out=out), out=out)
    return np.multiply(w, sq, out=sq)


def _reweighted(w: np.ndarray, x: np.ndarray, m: int, rowsum: _RowSum,
                out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row means and divisor-m variances of x reweighted by the counts w:
    the sub-sample mean and S_{m,n}^2 of each row, their terms w x and
    w (x - mean)^2 formed by rowsum, in out if it uses it.  A zero count
    times an overflowed square is a NaN that a study's validity mask
    refuses; a single sample passes its nonzero counts only."""
    with np.errstate(over="ignore", invalid="ignore"):
        rmean = rowsum(w, x, terms=np.multiply, out=out) / m
        return rmean, rowsum(w, x, np.asarray(rmean)[..., None], terms=_weighted_squares,
                             out=out) / m


def _studentized(w: np.ndarray, m: int, data: np.ndarray, center: float | None,
                 scale2: np.ndarray | float, rowsum: _RowSum,
                 out: tuple = (None, None)) -> tuple[np.ndarray, np.ndarray]:
    """The one pivot formula over rows: sum d_i data_i, or sum |d_i|
    (data_i - center) given a center, over sqrt(scale2) * sqrt(sum d_i^2),
    with d_i = w_i/m - 1/n from each row of the (integer) counts w.
    Returns the values and each row's sum d_i^2; a row where either
    vanishes gets a non-finite value for the caller to refuse or mask, and
    a quotient past float64 is +-inf.
    The terms are formed in out, two arrays of data's shape, if given."""
    dev = np.divide(w, m, out=out[0])
    dev -= 1.0 / data.shape[-1]
    ssq = rowsum(np.square(dev, out=out[1]))
    if center is None:
        dev *= data
    else:  # ssq is taken, so dev's buffer takes the numerator's terms
        np.abs(dev, out=dev)
        dev *= np.subtract(data, center, out=out[1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return rowsum(dev) / (np.sqrt(scale2) * np.sqrt(ssq)), ssq


def _exact_pivot(w: WeightVector, data: np.ndarray, center: float | None,
                 scale2: float, zero_scale: str) -> float:
    """One exactly summed row of _studentized; typed errors where it is undefined."""
    value, ssq = _studentized(w.counts, w.m, data, center, scale2, _exact_sum)
    if ssq == 0.0:
        raise DegenerateWeights()
    if scale2 <= 0.0:
        raise ZeroScale(zero_scale)
    return float(value)


def sample_stats(x) -> SampleStats:
    """Mean and divisor-n variance of a sample with at least two points."""
    x = _sample(x).reshape(-1)
    _check_n(x.size)
    mean, var, _ = _row_moments(x, _exact_sum)
    return SampleStats(n=x.size, mean=mean, var_biased=var)


def randomized_stats_from_nonzero(values_nz: np.ndarray, counts_nz: np.ndarray,
                                  m: int) -> tuple[float, float]:
    """(rmean, rvar) from the sub-sample values and their counts.

    Shared by the in-memory and out-of-core paths; with matching index
    order the two produce bitwise-identical results.
    """
    return _reweighted(counts_nz, np.asarray(values_nz, dtype=np.float64), m, _exact_sum)


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
    """S_{m,n}^2 (from the nonzero counts) if subsample, else S_n^2: the squared scale."""
    if subsample:
        idx, counts_nz = w.nonzero()
        return randomized_stats_from_nonzero(x[idx], counts_nz, w.m)[1]
    _check_n(x.size)
    return _row_moments(x, _exact_sum)[1]


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
