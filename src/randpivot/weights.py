"""Multinomial resampling weights and their deviation functionals.

A weight vector (w_1, ..., w_n) counts how often each index is chosen
when the index set {1, ..., n} is resampled with replacement m times, so
it is one multinomial(m; 1/n, ..., 1/n) draw.  Everything downstream
(pivots, interval widths, the error bound) is built from four functionals
of the deviations d_i = w_i/m - 1/n:

    sum_sq_dev     sum d_i^2
    sum_abs_dev    sum |d_i|
    sum_abs_cubed  sum |d_i|^3
    max_ratio      max d_i^2 / sum d_i^2

This module also provides exact small-case oracles: full enumeration of
the multinomial support with rational probabilities, exact binomial
moments of a single weight, and the closed form 2(1-1/n)^n for the
expected total absolute deviation when m = n.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import DegenerateWeights

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "WeightVector",
    "WeightStats",
    "draw_weights",
    "draw_indices",
    "weight_stats",
    "stats_from_nonzero",
    "exact_weight_moment",
    "exact_expectation_abs_dev",
    "enumerate_weight_vectors",
]

# Largest m for which exact_weight_moment evaluates the binomial pmf.
MAX_EXACT_MOMENT_M = 10_000
# Below this m the pmf is summed in exact rational arithmetic; above it,
# in log space with compensated summation.
_RATIONAL_M = 60


@dataclass(frozen=True)
class WeightVector:
    """One multinomial(m; 1/n, ..., 1/n) draw over n categories."""

    counts: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if counts.shape != (self.n,):
            raise ValueError(f"counts must have length n={self.n}")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        if int(counts.sum()) != self.m:
            raise ValueError(f"counts must sum to m={self.m}")

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices with w_i > 0 (ascending) and their counts."""
        idx = np.flatnonzero(self.counts)
        return idx, self.counts[idx]


@dataclass(frozen=True)
class WeightStats:
    """The deviation functionals of one weight vector.

    ``max_ratio`` is only defined for non-degenerate weights; accessing it
    when sum_sq_dev == 0 raises DegenerateWeights, mirroring the fact that
    every pivot is undefined there.
    """

    sum_sq_dev: float
    sum_abs_dev: float
    sum_abs_cubed: float
    _max_ratio: float | None = field(repr=False, default=None)

    @property
    def degenerate(self) -> bool:
        return self.sum_sq_dev == 0.0

    @property
    def max_ratio(self) -> float:
        if self._max_ratio is None:
            raise DegenerateWeights("all weights equal m/n; max_ratio is undefined")
        return self._max_ratio


def draw_indices(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform draws from {0, ..., n-1}; the raw resampling stream.

    Weight vectors and sparse index samples are both built by counting
    this stream, so the dense and out-of-core paths consume the generator
    identically.  The studies compute these values for a block of units
    from raw words (rng._bounded_indices) and call this only for the units
    that pass flags; single samples and big-data queries draw through here.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    return rng.integers(0, n, size=m)


def draw_weights(n: int, m: int, rng: np.random.Generator) -> WeightVector:
    """Draw one multinomial(m; 1/n, ..., 1/n) weight vector."""
    counts = np.bincount(draw_indices(n, m, rng), minlength=n)
    return WeightVector(counts=counts, m=m, n=n)


def stats_from_nonzero(counts_nz: np.ndarray, n: int, m: int) -> WeightStats:
    """Deviation functionals from the nonzero counts alone, or from all n.

    A category's deviation depends only on its count c, and the n - k
    categories not listed have count 0.  So each sum is sum_c h_c f(c)
    over the distinct counts c, 0 included, where h_c is the number of
    categories with count c; the work grows with the number of distinct
    counts, not with n or k.

    Exactness: f(c) is computed with the same IEEE operations as the
    elementwise form (c/m - 1/n, then square, abs and product), so each
    term is the same float.  h_c f(c) is passed to math.fsum as the
    terms f(c) 2^b over the set bits b of h_c; scaling by a power of two
    is exact (every f(c) is at most 1 and h_c < 2^63, so nothing
    overflows), so these terms add up to h_c f(c) exactly.  fsum returns
    the correctly rounded value of the exact sum of its terms, which is
    the same multiset total as all n elementwise terms: each result is
    bitwise their fsum, as the exact pivot kernel takes it.  Both the dense
    and the sparse (big-data) paths go through here, which keeps the two
    bitwise identical.
    """
    hist = np.bincount(np.asarray(counts_nz, dtype=np.int64), minlength=1)
    hist[0] += n - len(counts_nz)
    seen = hist.nonzero()[0]
    inv_n = 1.0 / n
    fm = float(m)

    sq_terms, abs_terms, cub_terms = [], [], []
    max_sq = 0.0
    for c, h in zip(seen.tolist(), hist[seen].tolist()):
        dev = c / fm - inv_n
        abs_dev = abs(dev)
        sq = dev * dev
        cub = abs_dev * sq
        max_sq = max(max_sq, sq)
        while h:
            if h & 1:
                sq_terms.append(sq)
                abs_terms.append(abs_dev)
                cub_terms.append(cub)
            h >>= 1
            sq *= 2.0
            abs_dev *= 2.0
            cub *= 2.0

    ssq = math.fsum(sq_terms)
    max_ratio = max_sq / ssq if ssq > 0.0 else None
    return WeightStats(ssq, math.fsum(abs_terms), math.fsum(cub_terms), max_ratio)


def weight_stats(w: WeightVector) -> WeightStats:
    """Compute the four deviation functionals of a weight vector."""
    return stats_from_nonzero(w.counts, w.n, w.m)


def exact_weight_moment(n: int, m: int, k: int) -> float:
    """Exact E(w_1 - m/n)^k, where w_1 ~ Binomial(m, 1/n).

    Rational arithmetic up to m = 60; log-space pmf with compensated
    summation beyond that (accurate to ~1e-12 relative).
    """
    if n < 1 or m < 1 or k < 1:
        raise ValueError("n, m, k must be positive")
    if m > MAX_EXACT_MOMENT_M:
        raise OverflowError(f"m={m} exceeds the exact-pmf cap {MAX_EXACT_MOMENT_M}")
    if m <= _RATIONAL_M:
        from fractions import Fraction  # imported here: only the exact oracles use it
        p = Fraction(1, n)
        q = 1 - p
        mean = Fraction(m, n)
        total = sum(
            math.comb(m, j) * p ** j * q ** (m - j) * (j - mean) ** k
            for j in range(m + 1)
        )
        return float(total)
    log_p = -math.log(n)
    log_q = math.log1p(-1.0 / n)
    mean = m / n
    terms = []
    for j in range(m + 1):
        log_pmf = (
            math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
            + j * log_p + (m - j) * log_q
        )
        terms.append(math.exp(log_pmf) * (j - mean) ** k)
    return math.fsum(terms)


def exact_expectation_abs_dev(n: int) -> float:
    """E sum_i |w_i/n - 1/n| for m = n weights: the closed form 2(1-1/n)^n."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2.0 * (1.0 - 1.0 / n) ** n


def enumerate_weight_vectors(n: int, m: int) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield every multinomial count vector with its exact probability.

    Enumeration oracle for small n, m: the support has C(m+n-1, n-1)
    points, each with probability m!/(prod w_i!) / n^m.
    """
    from fractions import Fraction
    denom = Fraction(1, n ** m)
    m_fact = math.factorial(m)
    for cuts in itertools.combinations(range(m + n - 1), n - 1):
        counts = []
        prev = -1
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(m + n - 2 - prev)
        coef = m_fact
        for c in counts:
            coef //= math.factorial(c)
        yield tuple(counts), coef * denom
