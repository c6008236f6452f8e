"""Deterministic Monte Carlo studies: coverage, band proportions, KS distance.

All three studies run on one row engine.  A row is one (sample, weights)
pair; a block of rows is evaluated by one call of the pivot kernel,
pivots._studentized, summed by numpy's np.add.reduce.  pivot() is one
row of the same kernel, summed exactly.  The block's row moments also
give each row's classical Student t value (divisor n-1, whose exact
cutoffs t_{alpha,n-1} are exact-size under normal data).  Rows with
degenerate weights or a vanishing scale are redrawn by one helper, at
most MAX_REDRAWS draws per row, and counted.

Draws come from counter-based streams keyed by (seed, indices), so a
report never depends on how rows are grouped into blocks or processes.
coverage_study and kolmogorov_distance key replication r at attempt a by
stream(seed, r, a), the draws a single-sample pivot or ci_mu call on
gen_sample then draw_weights would see.  The keys of a block's rows are
derived in one vectorized pass and one generator is rewound to each, so
the draws are stream(seed, r, a)'s without a generator built per row.
proportion_study keys outer replication o by (seed, o) and its redraws
by (seed, o, a); the attempt-0 keys of a chunk's outer replications come
from the same vectorized pass, one generator rewound per outer
replication, and every inner row of that outer is drawn from it.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cache, partial
from typing import Any, Callable, NamedTuple

import numpy as np

from ._normal import norm_cdf
from ._pool import ordered_map
from .errors import BadParams, RandPivotError, ZeroScale
from .intervals import SCHEMA_VERSION, _z_for
from .pivots import PivotKind, _check_n, _reweighted, _row_moments, _studentized
from .rng import _row_streams, stream
from .weights import draw_indices

__all__ = [
    "SCHEMA_VERSION", "DistributionSpec", "parse_dist", "gen_sample",
    "CoverageReport", "ProportionReport", "coverage_study",
    "proportion_study", "kolmogorov_distance", "student_t_cutoff",
]

MAX_REDRAWS = 100


class _Family(NamedTuple):
    """One row per family: parameter count and check, mean, sampler (p, n, rng)."""

    arity: int
    valid: Callable[[tuple[float, ...]], bool]
    mean: Callable[[tuple[float, ...]], float]
    sample: Callable[[tuple[float, ...], int, np.random.Generator], np.ndarray]


def _lognormal_std(p: tuple[float, ...], n: int, rng: np.random.Generator) -> np.ndarray:
    mean = _FAMILIES["lognormal"].mean(p)
    return (rng.lognormal(p[0], p[1], n) - mean) / (mean * math.sqrt(math.expm1(p[1] ** 2)))


_FAMILIES = {
    "binomial": _Family(2, lambda p: p[0] >= 1 and p[0] == int(p[0]) and 0.0 <= p[1] <= 1.0,
                        lambda p: p[0] * p[1],
                        lambda p, n, rng: rng.binomial(int(p[0]), p[1], n).astype(np.float64)),
    "poisson": _Family(1, lambda p: p[0] > 0, lambda p: p[0],
                       lambda p, n, rng: rng.poisson(p[0], n).astype(np.float64)),
    "lognormal": _Family(2, lambda p: p[1] > 0, lambda p: math.exp(p[0] + 0.5 * p[1] ** 2),
                         lambda p, n, rng: rng.lognormal(p[0], p[1], n)),
    "lognormal_std": _Family(2, lambda p: p[1] > 0, lambda p: 0.0, _lognormal_std),
    "exponential": _Family(1, lambda p: p[0] > 0, lambda p: 1.0 / p[0],
                           lambda p, n, rng: rng.exponential(1.0 / p[0], n)),
    "normal": _Family(2, lambda p: p[1] > 0, lambda p: p[0],
                      lambda p, n, rng: rng.normal(p[0], p[1], n)),
    "beta": _Family(2, lambda p: p[0] > 0 and p[1] > 0, lambda p: p[0] / (p[0] + p[1]),
                    lambda p, n, rng: rng.beta(p[0], p[1], n)),
    "uniform": _Family(2, lambda p: p[0] < p[1], lambda p: 0.5 * (p[0] + p[1]),
                       lambda p, n, rng: rng.uniform(p[0], p[1], n)),
}


@dataclass(frozen=True)
class DistributionSpec:
    """A sampling family with parameters and a closed-form mean."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        fam = self.family
        if fam not in _FAMILIES:
            raise BadParams(f"unknown family {fam!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        p = self.params
        row = _FAMILIES[fam]
        if len(p) != row.arity:
            raise BadParams(f"{fam} takes {row.arity} parameters, got {len(p)}")
        if not all(map(math.isfinite, p)) or not row.valid(p):
            raise BadParams(f"bad parameters {p} for family {fam}")

    @property
    def true_mean(self) -> float:
        return _FAMILIES[self.family].mean(self.params)

    def label(self) -> str:
        args = ",".join(f"{v:g}" for v in self.params)
        return f"{self.family}({args})"


def parse_dist(text: str) -> DistributionSpec:
    """Parse 'family:p1,p2' (e.g. 'normal:0,1', 'poisson:1')."""
    name, _, rest = text.strip().lower().partition(":")
    params = tuple(float(tok) for tok in rest.split(",")) if rest else ()
    return DistributionSpec(family=name, params=params)


def gen_sample(d: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the family, as float64."""
    return _FAMILIES[d.family].sample(d.params, n, rng)


def student_t_cutoff(alpha: float, df: int) -> float:
    """Upper-tail Student t critical value t_{alpha, df}.

    scipy.stats is imported here, on first use, because importing it
    costs more than the rest of the package's start-up.
    """
    from scipy.stats import t

    return float(t.ppf(1.0 - alpha, df))


@dataclass(frozen=True)
class CoverageReport:
    dist: str
    n: int
    m: int
    pivot: str
    reps: int
    alpha: float
    sided: str
    coverage: float
    classical_coverage: float
    classical_cutoff: str
    degenerate_count: int
    seed: int

    @property
    def stderr(self) -> float:
        return math.sqrt(self.coverage * (1.0 - self.coverage) / self.reps)

    def to_dict(self) -> dict[str, Any]:
        return {"schema_version": SCHEMA_VERSION, "kind": "coverage", **asdict(self),
                "stderr": self.stderr}


@dataclass(frozen=True)
class ProportionReport:
    dist: str
    n: int
    m: int
    pivot: str
    outer_reps: int
    inner_reps: int
    alpha: float
    sided: str
    band: tuple[float, float]
    proportion: float
    classical_proportion: float
    classical_cutoff: str
    degenerate_count: int
    seed: int

    def to_dict(self) -> dict[str, Any]:
        fields = asdict(self)
        low, high = fields.pop("band")
        return {"schema_version": SCHEMA_VERSION, "kind": "proportion", **fields,
                "band_low": low, "band_high": high}


def _cutoffs(alpha: float, sided: str, classical_cutoff: str, n: int) -> tuple[float, float]:
    """Validated normal cutoff z of the pivot and the classical comparator's cutoff."""
    z = _z_for(alpha, sided)
    if classical_cutoff == "normal":
        return z, z
    if classical_cutoff == "student_t":
        return z, student_t_cutoff(alpha / 2.0 if sided == "two" else alpha, n - 1)
    raise ValueError(f"classical_cutoff must be 'normal' or 'student_t', got {classical_cutoff!r}")


def _covered(values: np.ndarray, cutoff: float, sided: str) -> np.ndarray:
    """Per-row coverage event: the value below, above or within the cutoff."""
    if sided == "upper":
        return values <= cutoff
    if sided == "lower":
        return values >= -cutoff
    return np.abs(values) <= cutoff


def _counts_matrix(idx: np.ndarray, n: int) -> np.ndarray:
    """Integer weight counts, one row per row of resampled indices."""
    rows = idx.shape[0]
    flat = idx + (np.arange(rows, dtype=np.int64) * n)[:, None]
    return np.bincount(flat.ravel(), minlength=rows * n).reshape(rows, n)


_NUMPY_ROWSUM = partial(np.add.reduce, axis=-1)


def _batch_values(kind: PivotKind, x: np.ndarray, w: np.ndarray, m: int,
                  mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivot values and classical t values over rows, and one validity mask:
    sum d_i^2, the pivot scale and the classical s.d. all positive."""
    mean, var, s1 = _row_moments(x, _NUMPY_ROWSUM)
    scale2 = _reweighted(w, x, m, _NUMPY_ROWSUM)[1] if kind.uses_subsample_scale else var
    vals, ssq = _studentized(w, m, x, mu if kind.needs_mu else None, scale2, _NUMPY_ROWSUM)
    with np.errstate(divide="ignore", invalid="ignore"):
        tvals = (mean - mu) / (s1 / math.sqrt(x.shape[1]))
    return vals, tvals, (ssq > 0.0) & (scale2 > 0.0) & (s1 > 0.0)


def _check_study(d: DistributionSpec, n: int, m: int, kind: PivotKind) -> None:
    """Refuse, before any draw, the sizes no study takes and the
    configurations whose every row is invalid, which would otherwise spend
    the whole redraw budget before failing."""
    _check_n(n)
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if d.family == "binomial" and d.params[1] in (0.0, 1.0):
        raise ZeroScale(f"{d.label()} is constant: every sample's scale is zero")
    if kind.uses_subsample_scale and (m == 1 or n == m == 2):
        # one index, or two on two points, leaves no sub-sample spread or
        # leaves every weight at m/n
        raise ZeroScale(f"{kind.value} scale is zero for every draw at n={n}, m={m}")


def _evaluate_rows(draw, d: DistributionSpec, n: int, m: int, kind: PivotKind,
                   rows: int, name: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray, int]:
    """Pivot and classical t values of `rows` rows, redrawing invalid rows.

    draw(attempt, which) returns the (sample, counts) matrices of the rows
    numbered `which` at that attempt.  A row whose weights are degenerate
    or whose pivot or classical scale vanishes is drawn again, at most
    MAX_REDRAWS draws in all.  Returns both value arrays and the number
    of redraws.  If rows stay invalid, the error names the first of them
    by name(row): rows are keyed by their index, so that row and its name
    do not depend on how rows are split into blocks or chunks.
    """
    mu = d.true_mean
    vals, tvals = np.empty(rows), np.empty(rows)
    which = np.arange(rows)
    redraws = 0
    for attempt in range(MAX_REDRAWS):
        x, w = draw(attempt, which)
        vals[which], tvals[which], ok = _batch_values(kind, x, w, m, mu)
        which = which[~ok]
        if which.size == 0:
            return vals, tvals, redraws
        redraws += which.size
    raise RandPivotError(
        f"{name(int(which[0]))} had {MAX_REDRAWS} consecutive degenerate draws; "
        f"the configuration {d.label()}, n={n}, m={m} looks unusable"
    )


def _draw_replications(d: DistributionSpec, n: int, m: int, seed: int, first: int,
                       attempt: int, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Replication r = first + i draws its sample, then its m resampled
    # indices (as draw_weights would), from the state stream(seed, r,
    # attempt) starts in: one generator rewound to each row's key.
    x = np.empty((which.size, n))
    idx = np.empty((which.size, m), dtype=np.int64)
    for row, rng in enumerate(_row_streams(seed, first + which, attempt)):
        x[row] = gen_sample(d, n, rng)
        idx[row] = draw_indices(n, m, rng)
    return x, _counts_matrix(idx, n)


# Element budget of one block's sample and index matrices.  Every
# replication has its own stream, so the block size never changes a result.
_BLOCK_ELEMENTS = 1 << 18

# A study is pooled only when its in-process run would take about twice a
# pool's start-up (some 20 ms for two workers).  Its cost is counted in
# elements drawn, plus _STREAM_ELEMENTS for each item's own stream: that
# fixed cost of a replication is as large as drawing 256 elements.
_STREAM_ELEMENTS = 256
_POOL_ELEMENTS = 1 << 20


def _replication_chunk(args) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """_evaluate_rows results of replications [start, stop), block by block."""
    (d, n, m, kind, seed, start, stop) = args
    step = max(1, _BLOCK_ELEMENTS // max(n, m))
    return [_evaluate_rows(partial(_draw_replications, d, n, m, seed, lo), d, n, m, kind,
                           min(lo + step, stop) - lo, lambda i: f"replication {lo + i}")
            for lo in range(start, stop, step)]


def _run_chunks(worker, total: int, elements: int, threads: int, *args) -> list:
    """worker((*args, start, stop)) over about four ranges per thread of range(total).

    elements is the element count of one item of the range.  At threads
    <= 1, or when the study is too small to repay a pool (total *
    (elements + _STREAM_ELEMENTS) <= _POOL_ELEMENTS), the whole range is
    one in-process call, so every fixed cost of a call, a block of rows or
    a process pool is paid once, not per range.  Rows are keyed by index,
    so the report is the same.
    """
    pooled = threads > 1 and total * (elements + _STREAM_ELEMENTS) > _POOL_ELEMENTS
    step = math.ceil(total / min(threads * 4, total)) if pooled else total
    ranges = [(*args, lo, min(lo + step, total)) for lo in range(0, total, step)]
    return [part for _, part in ordered_map(worker, ranges, threads if len(ranges) > 1 else 0)]


def _replications(d: DistributionSpec, n: int, m: int, kind: PivotKind, reps: int,
                  seed: int, threads: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Pivot values, classical t values and redraws of replications 0..reps-1."""
    parts = _run_chunks(_replication_chunk, reps, max(n, m), threads, d, n, m, kind, seed)
    vals, tvals, redraws = zip(*(block for part in parts for block in part))
    return np.concatenate(vals), np.concatenate(tvals), sum(redraws)


def coverage_study(d: DistributionSpec, n: int, m: int, pivot_kind: PivotKind,
                   reps: int, alpha: float, sided: str = "upper", seed: int = 0,
                   classical_cutoff: str = "normal", threads: int = 1) -> CoverageReport:
    """Empirical coverage of one pivot over seeded replications.

    Replication r draws its sample and weights from stream(seed, r, attempt)
    and counts as covered when its pivot value meets the normal cutoff
    (below z, above -z, or within +/-z by sidedness).  For T-pivots that
    is coverage of the sample mean.  For G-pivots the event is the same
    as ci_mu(...).contains(mu): the interval's finite endpoint is
    ratio_mean -/+ z * unit and G = (ratio_mean - mu) / unit, so the
    population mean is covered exactly when G meets the cutoff.
    """
    pivot_kind = PivotKind(pivot_kind)
    _check_study(d, n, m, pivot_kind)
    if reps < 1:
        raise ValueError("reps must be positive")
    z, cutoff = _cutoffs(alpha, sided, classical_cutoff, n)
    vals, tvals, redraws = _replications(d, n, m, pivot_kind, reps, seed, threads)
    hits = int(_covered(vals, z, sided).sum())
    t_hits = int(_covered(tvals, cutoff, sided).sum())
    return CoverageReport(
        dist=d.label(), n=n, m=m, pivot=pivot_kind.value, reps=reps,
        alpha=alpha, sided=sided, coverage=hits / reps,
        classical_coverage=t_hits / reps, classical_cutoff=classical_cutoff,
        degenerate_count=redraws, seed=seed,
    )


def _draw_outer(d: DistributionSpec, n: int, m: int, seed: int, o: int, first: np.random.Generator,
                attempt: int, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Outer replication o draws its whole inner block from first, in stream(seed, o)'s
    # start state, and the rows still invalid at attempt a from stream(seed, o, a).
    rng = stream(seed, o, attempt) if attempt else first
    rows = which.size
    x = gen_sample(d, rows * n, rng).reshape(rows, n)
    return x, _counts_matrix(draw_indices(n, rows * m, rng).reshape(rows, m), n)


def _proportion_chunk(args) -> tuple[int, int, int]:
    (d, n, m, kind, z, cutoff, sided, band, seed, inner, start, stop) = args
    lo, hi = band
    in_band = t_in_band = redraws = 0
    # one generator, rewound per outer: an outer draws all its rows before the next
    for o, first in zip(range(start, stop), _row_streams(seed, np.arange(start, stop))):
        draw = partial(_draw_outer, d, n, m, seed, o, first)
        vals, tvals, rd = _evaluate_rows(
            draw, d, n, m, kind, inner, lambda i: f"inner replication {i} of outer replication {o}")
        redraws += rd
        cov = int(np.count_nonzero(_covered(vals, z, sided))) / inner
        t_cov = int(np.count_nonzero(_covered(tvals, cutoff, sided))) / inner
        in_band += lo <= cov <= hi
        t_in_band += lo <= t_cov <= hi
    return in_band, t_in_band, redraws


def proportion_study(d: DistributionSpec, n: int, pivot_kind: PivotKind,
                     outer_reps: int = 500, inner_reps: int = 500,
                     band: tuple[float, float] = (0.94, 0.96),
                     alpha: float = 0.05, seed: int = 0, m: int | None = None,
                     sided: str = "upper", classical_cutoff: str = "normal",
                     threads: int = 1) -> ProportionReport:
    """Fraction of outer replications whose inner coverage lands in band.

    Each outer replication o (stream (seed, o)) runs inner_reps fresh
    (sample, weights) pairs -- one weight draw per data replication -- and
    estimates a coverage probability; the report gives the fraction of
    those estimates inside the band, for the pivot and for the classical
    Student t comparator on the same data.
    """
    m = n if m is None else m
    pivot_kind = PivotKind(pivot_kind)
    _check_study(d, n, m, pivot_kind)
    if outer_reps < 1 or inner_reps < 1:
        raise ValueError("outer_reps and inner_reps must be positive")
    if not 0.0 <= band[0] <= band[1] <= 1.0:
        raise ValueError(f"band must satisfy 0 <= lo <= hi <= 1, got {tuple(band)}")
    z, cutoff = _cutoffs(alpha, sided, classical_cutoff, n)
    parts = _run_chunks(_proportion_chunk, outer_reps, inner_reps * max(n, m), threads,
                        d, n, m, pivot_kind, z, cutoff, sided, tuple(band), seed, inner_reps)
    in_band, t_in_band, redraws = map(sum, zip(*parts))
    return ProportionReport(
        dist=d.label(), n=n, m=m, pivot=pivot_kind.value,
        outer_reps=outer_reps, inner_reps=inner_reps, alpha=alpha, sided=sided,
        band=(band[0], band[1]), proportion=in_band / outer_reps,
        classical_proportion=t_in_band / outer_reps,
        classical_cutoff=classical_cutoff, degenerate_count=redraws,
        seed=seed,
    )


KDIST_GRID = np.linspace(-5.0, 5.0, 512)


@cache
def _kdist_phi() -> np.ndarray:
    """Phi on KDIST_GRID, evaluated once per process, on first use."""
    phi = np.array([norm_cdf(t) for t in KDIST_GRID])
    phi.flags.writeable = False
    return phi


def kolmogorov_distance(pivot_kind: PivotKind, d: DistributionSpec, n: int,
                        m: int, reps: int, seed: int = 0,
                        threads: int = 1) -> float:
    """Sup over a fixed 512-point grid of |ECDF(pivot values) - Phi|."""
    pivot_kind = PivotKind(pivot_kind)
    _check_study(d, n, m, pivot_kind)
    if reps < 1:
        raise ValueError("reps must be positive")
    values = np.sort(_replications(d, n, m, pivot_kind, reps, seed, threads)[0])
    ecdf = np.searchsorted(values, KDIST_GRID, side="right") / reps
    return float(np.max(np.abs(ecdf - _kdist_phi())))
