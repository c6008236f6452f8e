"""Deterministic Monte Carlo studies: coverage, band proportions, KS distance.

All three studies run on one row engine.  A row is one (sample, weights)
pair; a block of rows is column-major and is evaluated by one call of
the pivot kernel, pivots._studentized, which sums each row left to right
from 0.0 (_rowsum), so a row's value does not depend on the block it is
in.  pivot() is one row of the same kernel, summed exactly.  The
block's row moments also give each row's classical Student t value
(divisor n-1, whose exact cutoffs t_{alpha,n-1} are exact-size under
normal data).  Rows with degenerate weights, or a scale that vanishes or
overflows float64, are redrawn by one helper, at most MAX_REDRAWS draws
per row, and counted.

Each block is reduced to an integer tally (coverage hits, in-band outers
or ECDF counts), and a study sums them, so no value outlives its block:
memory does not grow with the replication count.

Draws come from counter-based streams keyed by (seed, indices), so a
report never depends on how rows are grouped into blocks or processes.
coverage_study and kolmogorov_distance key replication r at attempt a by
stream(seed, r, a), the draws a single-sample pivot or ci_mu call on
gen_sample then draw_weights would see.  The keys of a block's rows are
derived in one vectorized pass and one generator is rewound to each, so
the draws are stream(seed, r, a)'s without a generator built per row.
A row's resampling indices are draw_indices' values, computed from its
raw words in one pass over the block (rng._bounded_indices); a row that
pass flags is drawn again by draw_indices itself.
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
from .intervals import SCHEMA_VERSION, _check_m, _z_for
from .pivots import PivotKind, _check_n, _reweighted, _row_moments, _studentized
from .rng import _bounded_indices, _row_streams
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


def _lognormal_sd(p: tuple[float, ...]) -> float:
    """The s.d. of lognormal(p): its mean times sqrt(exp(sigma^2) - 1)."""
    return _FAMILIES["lognormal"].mean(p) * math.sqrt(math.expm1(p[1] ** 2))


def _lognormal_std(p: tuple[float, ...], n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.lognormal(p[0], p[1], n) - _FAMILIES["lognormal"].mean(p)) / _lognormal_sd(p)


_FAMILIES = {
    "binomial": _Family(2, lambda p: p[0] >= 1 and p[0] == int(p[0]) and 0.0 <= p[1] <= 1.0,
                        lambda p: p[0] * p[1],
                        lambda p, n, rng: rng.binomial(int(p[0]), p[1], n).astype(np.float64)),
    "poisson": _Family(1, lambda p: p[0] > 0, lambda p: p[0],
                       lambda p, n, rng: rng.poisson(p[0], n).astype(np.float64)),
    "lognormal": _Family(2, lambda p: p[1] > 0, lambda p: math.exp(p[0] + 0.5 * p[1] ** 2),
                         lambda p, n, rng: rng.lognormal(p[0], p[1], n)),
    # an s.d. that underflows to 0 would make every standardized draw 0/0
    "lognormal_std": _Family(2, lambda p: p[1] > 0 and _lognormal_sd(p) > 0.0, lambda p: 0.0,
                             _lognormal_std),
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

    scipy.special is imported here, on first use, because importing it
    costs more than the rest of the package's start-up; its stdtrit is
    the inverse that scipy.stats.t.ppf calls, at a third of the import.
    """
    from scipy.special import stdtrit

    return float(stdtrit(df, 1.0 - alpha))


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


def _in_band(z: float, cutoff: float, sided: str, inner: int, band: tuple[float, float],
             vals: np.ndarray, tvals: np.ndarray) -> np.ndarray:
    """The groups of `inner` rows whose share of pivot values meeting z, and
    of t values meeting cutoff (below, above or within it by sidedness), lies
    in band.  Coverage is inner=1, band=(1, 1): the covered rows."""
    v, c = np.array([vals, tvals]), np.array([[z], [cutoff]])
    hit = v <= c if sided == "upper" else v >= -c if sided == "lower" else np.abs(v) <= c
    share = hit.reshape(2, -1, inner).sum(axis=2) / inner
    return ((band[0] <= share) & (share <= band[1])).sum(axis=1)


def _counts_matrix(idx: np.ndarray, n: int) -> np.ndarray:
    """Integer weight counts, one row per row of resampled indices, column-major."""
    rows = idx.shape[0]
    flat = idx * rows + np.arange(rows, dtype=np.int64)[:, None]
    return np.bincount(flat.ravel(), minlength=rows * n).reshape(n, rows).T


def _rowsum(a: np.ndarray) -> np.ndarray:
    """The studies' row sum: each row of a column-major block left to right
    from 0.0.  numpy reduces two or more such rows one column at a time from
    its 0.0 start, but sums a lone row pairwise, so that row is accumulated
    (+ 0.0 gives a row of -0.0 the reduction's +0.0)."""
    if len(a) > 1:
        return np.add.reduce(a, axis=-1)
    return np.add.accumulate(a, axis=-1)[:, -1] + 0.0


def _batch_values(kind: PivotKind, x: np.ndarray, w: np.ndarray, m: int, mu: float,
                  work: tuple = (None, None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivot values and classical t values over rows, and one validity mask:
    sum d_i^2 positive, the pivot scale and the classical s.d. positive and
    finite (an overflowed scale would make its row's value 0, so covered);
    terms formed in work (two arrays of x's shape) if given."""
    mean, var, s1 = _row_moments(x, _rowsum, work[0])
    scale2 = _reweighted(w, x, m, _rowsum, work[0])[1] if kind.uses_subsample_scale else var
    vals, ssq = _studentized(w, m, x, mu if kind.needs_mu else None, scale2, _rowsum, work)
    with np.errstate(divide="ignore", invalid="ignore"):
        tvals = (mean - mu) / (s1 / math.sqrt(x.shape[1]))
    return vals, tvals, ((ssq > 0.0) & (np.minimum(scale2, s1) > 0.0)
                         & (np.maximum(scale2, s1) < math.inf))


def _check_study(d: DistributionSpec, n: int, m: int, kind: PivotKind) -> PivotKind:
    """The pivot kind, after refusing, before any draw, the sizes no study
    takes and the configurations whose every row is invalid, which would
    otherwise spend the whole redraw budget before failing."""
    kind = PivotKind(kind)
    _check_n(n)
    _check_m(n, m)
    if d.family == "binomial" and d.params[1] in (0.0, 1.0):
        raise ZeroScale(f"{d.label()} is constant: every sample's scale is zero")
    if kind.uses_subsample_scale and (m == 1 or n == m == 2):
        # one index, or two on two points, leaves no sub-sample spread or
        # leaves every weight at m/n
        raise ZeroScale(f"{kind.value} scale is zero for every draw at n={n}, m={m}")
    return kind


def _evaluate_rows(draw, d: DistributionSpec, n: int, m: int, kind: PivotKind, rows: int,
                   name: Callable[[int], str],
                   tally: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """A block's integer tally of `rows` rows' values, redrawing invalid rows.

    draw(attempt, which) returns the (sample, counts) matrices of the rows
    numbered `which` at that attempt, and _batch_values' work for them.  A
    row whose weights are degenerate or whose pivot or classical scale
    vanishes or overflows is drawn again, at most MAX_REDRAWS draws in all.
    Returns tally(pivot values, classical t values), an integer array, with
    the redraws appended in its type.  If rows stay invalid, the error names
    the first of them by name(row): rows are keyed by their index, so that
    row and its name do not depend on how rows are split into blocks.
    """
    mu = d.true_mean
    vals, tvals = np.empty(rows), np.empty(rows)
    which = np.arange(rows)
    redraws = 0
    for attempt in range(MAX_REDRAWS):
        x, w, work = draw(attempt, which)
        vals[which], tvals[which], ok = _batch_values(kind, x, w, m, mu, work)
        which = which[~ok]
        if which.size == 0:
            counts = tally(vals, tvals)
            return np.append(counts, counts.dtype.type(redraws))
        redraws += which.size
    raise RandPivotError(
        f"{name(int(which[0]))} had {MAX_REDRAWS} consecutive degenerate draws; "
        f"the configuration {d.label()}, n={n}, m={m} looks unusable"
    )


def _draw_replications(d: DistributionSpec, n: int, m: int, seed: int, first: int,
                       attempt: int, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Replication r = first + i draws its sample, then its m resampled
    # indices (as draw_weights would), from the state stream(seed, r,
    # attempt) starts in: one generator rewound to each row's key.  The
    # indices are draw_indices' values, computed from each row's raw words
    # in one pass over the block; a row that pass flags is drawn again,
    # sample then draw_indices, from its own stream.  Rows are drawn
    # contiguously, then the block is made column-major for _rowsum.
    rows = first + which
    x = np.empty((which.size, n))
    words = np.empty((which.size, (m + 1) // 2), dtype=np.uint64)
    for row, rng in enumerate(_row_streams(seed, rows, attempt)):
        x[row] = gen_sample(d, n, rng)
        words[row] = rng.bit_generator.random_raw(words.shape[1])
    idx, flagged = _bounded_indices(words, n, m)
    for row, rng in zip(np.flatnonzero(flagged), _row_streams(seed, rows[flagged], attempt)):
        gen_sample(d, n, rng)
        idx[row] = draw_indices(n, m, rng)
    return np.asfortranarray(x), _counts_matrix(idx, n), (None, None)


# Element budget of a block (at least one whole proportion outer).  Every
# replication has its own stream, so the block size never changes a result.
_BLOCK_ELEMENTS = 1 << 16

# A study is pooled only when its in-process run would take about twice a
# pool's start-up (some 35 ms for two workers).  Its cost is counted in
# elements drawn, plus _STREAM_ELEMENTS for each item's own stream: that
# fixed cost of a replication is about as large as drawing 128 elements.
_STREAM_ELEMENTS = 128
_POOL_ELEMENTS = 1 << 20


def _replication_chunk(args) -> np.ndarray:
    """Summed block tallies and redraws of replications [start, stop)."""
    (d, n, m, kind, seed, tally, start, stop) = args
    step = max(1, _BLOCK_ELEMENTS // max(n, m))
    return sum(_evaluate_rows(partial(_draw_replications, d, n, m, seed, lo), d, n, m, kind,
                              min(lo + step, stop) - lo, lambda i: f"replication {lo + i}", tally)
               for lo in range(start, stop, step))


def _run_chunks(worker, total: int, elements: int, threads: int, *args) -> np.ndarray:
    """worker((*args, start, stop)) summed over about four ranges per thread.

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
    return sum(part for _, part in ordered_map(worker, ranges, threads if len(ranges) > 1 else 0))


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
    pivot_kind = _check_study(d, n, m, pivot_kind)
    if reps < 1:
        raise ValueError("reps must be positive")
    tally = partial(_in_band, *_cutoffs(alpha, sided, classical_cutoff, n), sided, 1, (1, 1))
    hits, t_hits, redraws = _run_chunks(_replication_chunk, reps, max(n, m), threads,
                                        d, n, m, pivot_kind, seed, tally).tolist()
    return CoverageReport(
        dist=d.label(), n=n, m=m, pivot=pivot_kind.value, reps=reps,
        alpha=alpha, sided=sided, coverage=hits / reps,
        classical_coverage=t_hits / reps, classical_cutoff=classical_cutoff,
        degenerate_count=redraws, seed=seed,
    )


def _proportion_chunk(args) -> np.ndarray:
    """Summed block tallies and redraws of outer replications [start, stop):
    one kernel call per block of whole outers, in four buffers reused."""
    (d, n, m, kind, seed, inner, tally, start, stop) = args
    step = max(1, _BLOCK_ELEMENTS // (inner * max(n, m)))
    buffers = [np.empty((n, min(step, stop - start) * inner)) for _ in range(4)]
    firsts, offsets = _row_streams(seed, np.arange(start, stop)), np.arange(inner).repeat(m)

    def draw(first: int, attempt: int, which: np.ndarray):
        # Column i holds inner row i % inner of outer first + i // inner.  Outer
        # o draws its rows in order from the next of firsts (stream(seed, o)) at
        # attempt 0, stream(seed, o, a) at a: gen_sample(d, k*n), draw_indices(n, k*m).
        sizes = np.bincount(which // inner)
        outers = np.flatnonzero(sizes)
        rngs = firsts if attempt == 0 else _row_streams(seed, first + outers, attempt)
        x, w, *work = (buf[:, :which.size] for buf in buffers)
        at = 0
        for k, rng in zip(sizes[outers].tolist(), rngs):
            x[:, at:at + k] = gen_sample(d, k * n, rng).reshape(k, n).T
            idx = draw_indices(n, k * m, rng)
            idx *= k
            idx += offsets[:k * m]  # row i's index j is counted at j * k + i
            w[:, at:at + k] = np.bincount(idx, minlength=n * k).reshape(n, k)
            at += k
        return x.T, w.T, [a.T for a in work]

    return sum(_evaluate_rows(
        partial(draw, first), d, n, m, kind, (min(first + step, stop) - first) * inner,
        lambda i: f"inner replication {i % inner} of outer replication {first + i // inner}",
        tally) for first in range(start, stop, step))


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
    pivot_kind = _check_study(d, n, m, pivot_kind)
    if outer_reps < 1 or inner_reps < 1:
        raise ValueError("outer_reps and inner_reps must be positive")
    if not 0.0 <= band[0] <= band[1] <= 1.0:
        raise ValueError(f"band must satisfy 0 <= lo <= hi <= 1, got {tuple(band)}")
    tally = partial(_in_band, *_cutoffs(alpha, sided, classical_cutoff, n), sided, inner_reps, band)
    in_band, t_in_band, redraws = _run_chunks(
        _proportion_chunk, outer_reps, inner_reps * max(n, m), threads,
        d, n, m, pivot_kind, seed, inner_reps, tally).tolist()
    return ProportionReport(
        dist=d.label(), n=n, m=m, pivot=pivot_kind.value,
        outer_reps=outer_reps, inner_reps=inner_reps, alpha=alpha, sided=sided,
        band=(band[0], band[1]), proportion=in_band / outer_reps,
        classical_proportion=t_in_band / outer_reps,
        classical_cutoff=classical_cutoff, degenerate_count=redraws,
        seed=seed,
    )


KDIST_GRID = np.linspace(-5.0, 5.0, 512)


def _ecdf_counts(vals: np.ndarray, tvals: np.ndarray) -> np.ndarray:
    """kdist's tally: per KDIST_GRID point, the pivot values at or below it."""
    return np.searchsorted(np.sort(vals), KDIST_GRID, side="right")


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
    pivot_kind = _check_study(d, n, m, pivot_kind)
    if reps < 1:
        raise ValueError("reps must be positive")
    ecdf = _run_chunks(_replication_chunk, reps, max(n, m), threads,
                       d, n, m, pivot_kind, seed, _ecdf_counts)[:-1] / reps
    return float(np.max(np.abs(ecdf - _kdist_phi())))
