"""Deterministic Monte Carlo studies: coverage, band proportions, KS distance.

All three studies run on one row engine.  A row is one (sample, weights)
pair; a block of rows is column-major and is evaluated by one call of
the pivot kernel, pivots._studentized, which sums each row left to right
from 0.0 (_rowsum), so a row's value does not depend on the block it is
in.  pivot() is one row of the same kernel, summed exactly.  The
block's row moments also give each row's classical Student t value
(divisor n-1, whose exact cutoffs t_{alpha,n-1} are exact-size under
normal data).  Rows with degenerate weights, or a scale that vanishes or
overflows float64, are redrawn within their block, at most MAX_REDRAWS
draws per row, and counted.

Each block is reduced to an integer tally (coverage hits, in-band outers
or ECDF counts), and a study sums them, so no value outlives its block:
memory does not grow with the replication count.

Draws come from counter-based streams keyed by (seed, indices), so a
report never depends on how rows are grouped into blocks or processes.
Every study draws units of rows: a coverage or kdist replication is a
unit of one row, a proportion outer replication a unit of inner_reps rows.
Unit u draws its k rows still invalid at attempt a (all of them at
attempt 0) from stream(seed, u, a): gen_sample(d, k*n), then
draw_indices(n, k*m), as a single-sample pivot or ci_mu call on
gen_sample then draw_weights would see them.  So a coverage replication
is a proportion outer replication of one row.  The keys of a run of units
come from one vectorized pass, one generator is rewound to each, and a
block's indices are computed from raw words in one pass
(rng._bounded_indices); a unit that pass flags is drawn again.
A study that runs in this process, not in --threads workers, is cut in
two halves of its units over _pool.halves' helper thread when its units
are wide enough; tallies are integers, so no cut changes a report's bits.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cache, partial
from typing import Any, Callable, NamedTuple

import numpy as np

from ._normal import norm_cdf
from ._pool import halves, ordered_map
from .errors import BadParams, RandPivotError, ZeroScale
from .intervals import SCHEMA_VERSION, _check_m, _z_for
from .pivots import PivotKind, _check_n, _reweighted, _row_moments, _studentized
from .rng import _bounded_indices, _row_keys, _row_streams, stream
from .weights import draw_indices

__all__ = [
    "SCHEMA_VERSION", "DistributionSpec", "parse_dist", "gen_sample",
    "CoverageReport", "ProportionReport", "coverage_study",
    "proportion_study", "kolmogorov_distance", "student_t_cutoff",
]

MAX_REDRAWS = 100


class _Family(NamedTuple):
    """One row per family: parameter count and check, mean, sampler (p, size, rng)."""

    arity: int
    valid: Callable[[tuple[float, ...]], bool]
    mean: Callable[[tuple[float, ...]], float]
    sample: Callable[[tuple[float, ...], int | tuple[int, ...], np.random.Generator], np.ndarray]


def _lognormal_sd(p: tuple[float, ...]) -> float:
    """The s.d. of lognormal(p): its mean times sqrt(exp(sigma^2) - 1)."""
    return _FAMILIES["lognormal"].mean(p) * math.sqrt(math.expm1(p[1] ** 2))


def _lognormal_std(p: tuple[float, ...], n: int | tuple[int, ...],
                   rng: np.random.Generator) -> np.ndarray:
    return (rng.lognormal(p[0], p[1], n) - _FAMILIES["lognormal"].mean(p)) / _lognormal_sd(p)


_FAMILIES = {
    "binomial": _Family(2, lambda p: p[0] >= 1 and p[0] == int(p[0]) and 0.0 <= p[1] <= 1.0,
                        lambda p: p[0] * p[1],
                        lambda p, n, rng: rng.binomial(int(p[0]), p[1], n).astype(np.float64)),
    "poisson": _Family(1, lambda p: p[0] > 0, lambda p: p[0],
                       lambda p, n, rng: rng.poisson(p[0], n).astype(np.float64)),
    "lognormal": _Family(2, lambda p: p[1] > 0, lambda p: math.exp(p[0] + 0.5 * p[1] ** 2),
                         lambda p, n, rng: rng.lognormal(p[0], p[1], n)),
    # an s.d. that underflows to 0 would make every standardized draw 0/0, an infinite one 0
    "lognormal_std": _Family(2, lambda p: p[1] > 0 and 0.0 < _lognormal_sd(p) < math.inf,
                             lambda p: 0.0, _lognormal_std),
    "exponential": _Family(1, lambda p: p[0] > 0, lambda p: 1.0 / p[0],
                           lambda p, n, rng: rng.exponential(1.0 / p[0], n)),
    "normal": _Family(2, lambda p: p[1] > 0, lambda p: p[0],
                      lambda p, n, rng: rng.normal(p[0], p[1], n)),
    "beta": _Family(2, lambda p: p[0] > 0 and p[1] > 0, lambda p: p[0] / (p[0] + p[1]),
                    lambda p, n, rng: rng.beta(p[0], p[1], n)),
    "uniform": _Family(2, lambda p: p[0] < p[1], lambda p: 0.5 * p[0] + 0.5 * p[1],
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
        try:  # a mean that overflows, or an s.d. for lognormal_std, is refused too
            ok = all(map(math.isfinite, p)) and row.valid(p) and math.isfinite(row.mean(p))
        except OverflowError:
            ok = False
        if not ok:
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
    """Integer weight counts, one row per row of resampled indices, column-major.
    idx (int64) is overwritten: row i's index j becomes its count's place, j * rows + i."""
    rows = idx.shape[0]
    idx *= rows
    idx += np.arange(rows, dtype=np.int64)[:, None]
    return np.bincount(idx.ravel(), minlength=rows * n).reshape(n, rows).T


def _rowsum(*operands, terms=None, out=None) -> np.ndarray:
    """The studies' row sum of terms(*operands, out=out), formed in the
    caller's work buffer, or of the one operand: each row of a column-major
    block left to right from 0.0.  numpy reduces two or more such rows one
    column at a time from its 0.0 start, but sums a lone row pairwise, so
    that row is accumulated (+ 0.0 gives a row of -0.0 the reduction's +0.0)."""
    a = operands[0] if terms is None else terms(*operands, out=out)
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


# Element budget of a block (at least one whole unit).  Every unit has its
# own stream, so the block size never changes a result.
_BLOCK_ELEMENTS = 1 << 16

# A study is pooled only when its in-process run would take about twice a
# pool's start-up (some 35 ms for two workers).  Its cost is counted in
# elements drawn, plus _STREAM_ELEMENTS for each item's own stream: that
# fixed cost of a replication is about as large as drawing 128 elements.
_STREAM_ELEMENTS = 128
_POOL_ELEMENTS = 1 << 20

# The fewest elements a unit draws for its study to be split over two
# threads: a narrower unit's rewind and draw calls hold the GIL (split
# against serial: 1.15 at 1,000 elements, 0.77-0.91 at 1,536, README).
_SPLIT_WIDTH = 12 * _STREAM_ELEMENTS


def _study_chunk(args, block: int | None = None) -> np.ndarray:
    """Summed block tallies of units [start, stop), of `inner` rows each,
    with the redraws appended in the tallies' type; a block holds at most
    `block` elements (_BLOCK_ELEMENTS if None), or one unit.

    Unit u at attempt a is drawn from stream(seed, u, a).  A block of whole
    units is one kernel call, in reused buffers; attempt-0 keys are derived
    a run of whole blocks (at most 1,024 units, or one block) at a time, so
    memory stays flat in the unit count.  A row whose weights are degenerate
    or whose pivot or classical scale vanishes or overflows is drawn again,
    at most MAX_REDRAWS draws in all; the block is then reduced to
    tally(pivot values, classical t values), an integer array.  If rows stay
    invalid, the error names the first of them, block row i, as
    name.format(unit, row in the unit): rows are keyed by their unit, so
    that row and its name do not depend on how units are split into blocks.
    """
    (d, n, m, kind, seed, inner, name, tally, start, stop) = args
    units = min(max(1, (block or _BLOCK_ELEMENTS) // (inner * max(n, m))), stop - start)
    run = units * max(1, (_BLOCK_ELEMENTS >> 6) // units)
    sample = partial(_FAMILIES[d.family].sample, d.params)  # gen_sample(d, ...), looked up once
    word_buf = np.empty(units * ((inner * m + 1) // 2), dtype=np.uint64)
    idx_buf = np.empty(units * inner * m, dtype=np.int64)
    x, *work = (np.empty((n, units * inner)) for _ in range(3))
    gen = stream(seed)  # rewound to each unit's key in turn
    raw = gen.bit_generator.random_raw

    def draw(first: int, keys: np.ndarray, attempt: int, which: np.ndarray):
        # Row i of the block is row i % inner of unit first + i // inner.  The
        # units drawn fill x's rows in order, each sample in its rows' shape
        # (gen_sample(d, k*n)'s draws); unit j's raw words fill row j of words.
        sizes = np.bincount(which // inner)
        drawn = np.flatnonzero(sizes)
        sizes = sizes[drawn]
        count, rows = drawn.size, which.size
        most = inner if rows == count * inner else int(sizes.max())
        keys = _row_keys(seed, first + drawn, attempt) if attempt else keys  # 0 draws all
        width = (most * m + 1) // 2
        words = word_buf[:count * width].reshape(count, width)
        if most == 1:  # x's rows: one-row slices cost ~5 % of a 100-rep coverage cell
            samples = x.T[:rows]
        else:
            ends = np.cumsum(sizes).tolist()
            samples = [x.T[lo:hi] for lo, hi in zip([0, *ends], ends)]
        for view, word, _ in zip(samples, words, _row_streams(gen, keys)):
            view[...] = sample(view.shape, gen)
            word[...] = raw(width)
        idx, flagged = _bounded_indices(words, n, most * m,
                                        idx_buf[:count * most * m].reshape(count, -1))
        for j, _ in zip(np.flatnonzero(flagged).tolist(), _row_streams(gen, keys[flagged])):
            k = int(sizes[j])
            sample(k * n, gen)
            idx[j, :k * m] = draw_indices(n, k * m, gen)
        if rows < count * most:  # a redraw: unit j's indices are its first sizes[j] * m
            idx = idx[np.arange(most * m) < sizes[:, None] * m]
        return x[:, :rows].T, _counts_matrix(idx.reshape(rows, m), n), [a[:, :rows].T for a in work]

    mu, tallies, redraws = d.true_mean, 0, 0
    for lo in range(start, stop, run):
        keys = _row_keys(seed, np.arange(lo, min(lo + run, stop)), 0)
        for first in range(lo, min(lo + run, stop), units):
            rows = (min(first + units, stop) - first) * inner
            vals, tvals = np.empty(rows), np.empty(rows)
            which = np.arange(rows)
            for attempt in range(MAX_REDRAWS):
                rows_x, w, rows_work = draw(first, keys[first - lo:first - lo + units],
                                            attempt, which)
                vals[which], tvals[which], ok = _batch_values(kind, rows_x, w, m, mu, rows_work)
                which = which[~ok]
                if which.size == 0:
                    break
                redraws += which.size
            else:
                i = int(which[0])
                raise RandPivotError(
                    f"{name.format(first + i // inner, i % inner)} had {MAX_REDRAWS} "
                    f"consecutive degenerate draws; the configuration {d.label()}, "
                    f"n={n}, m={m} looks unusable")
            tallies = tallies + tally(vals, tvals)
    return np.append(tallies, tallies.dtype.type(redraws))


def _run_chunks(total: int, threads: int, *args) -> np.ndarray:
    """_study_chunk((*args, start, stop)) summed over about four ranges per thread.

    args are (d, n, m, kind, seed, inner, name, tally): a unit of the range
    draws inner * max(n, m) elements.  At threads <= 1, or when the study is
    too small to repay a pool (total * (inner * max(n, m) + _STREAM_ELEMENTS)
    <= _POOL_ELEMENTS), the whole range is one in-process call, so every
    fixed cost of a call, a block of rows or a process pool is paid once,
    not per range, unless _pool.halves cuts it in two: its units must be at
    least _SPLIT_WIDTH wide, and a half's blocks take 3/4 of the budget, so
    the two hold 1.5 blocks at once.  Units are keyed by index, so the
    report is the same.
    """
    n, m, inner = args[1], args[2], args[5]
    width = inner * max(n, m)
    if threads > 1 and total > 1 and total * (width + _STREAM_ELEMENTS) > _POOL_ELEMENTS:
        step = math.ceil(total / min(threads * 4, total))
        ranges = [(*args, lo, min(lo + step, total)) for lo in range(0, total, step)]
        return sum(part for _, part in ordered_map(_study_chunk, ranges, threads))

    def chunk(lo: int, hi: int) -> np.ndarray:  # a half's blocks take 3/4 of the budget
        return _study_chunk((*args, lo, hi), 3 * _BLOCK_ELEMENTS // 4 if hi - lo < total else None)

    return sum(halves(chunk, total, total // 2, items=total * width * (width >= _SPLIT_WIDTH)))


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
    hits, t_hits, redraws = _run_chunks(reps, threads, d, n, m, pivot_kind, seed, 1,
                                        "replication {0}", tally).tolist()
    return CoverageReport(
        dist=d.label(), n=n, m=m, pivot=pivot_kind.value, reps=reps,
        alpha=alpha, sided=sided, coverage=hits / reps,
        classical_coverage=t_hits / reps, classical_cutoff=classical_cutoff,
        degenerate_count=redraws, seed=seed,
    )


def proportion_study(d: DistributionSpec, n: int, pivot_kind: PivotKind,
                     outer_reps: int = 500, inner_reps: int = 500,
                     band: tuple[float, float] = (0.94, 0.96),
                     alpha: float = 0.05, seed: int = 0, m: int | None = None,
                     sided: str = "upper", classical_cutoff: str = "normal",
                     threads: int = 1) -> ProportionReport:
    """Fraction of outer replications whose inner coverage lands in band.

    Each outer replication o (stream(seed, o, attempt)) runs inner_reps
    fresh (sample, weights) pairs -- one weight draw per data replication
    -- and estimates a coverage probability; the report gives the fraction
    of those estimates inside the band, for the pivot and for the
    classical Student t comparator on the same data.
    """
    m = n if m is None else m
    pivot_kind = _check_study(d, n, m, pivot_kind)
    if outer_reps < 1 or inner_reps < 1:
        raise ValueError("outer_reps and inner_reps must be positive")
    if not 0.0 <= band[0] <= band[1] <= 1.0:
        raise ValueError(f"band must satisfy 0 <= lo <= hi <= 1, got {tuple(band)}")
    tally = partial(_in_band, *_cutoffs(alpha, sided, classical_cutoff, n), sided, inner_reps, band)
    in_band, t_in_band, redraws = _run_chunks(
        outer_reps, threads, d, n, m, pivot_kind, seed, inner_reps,
        "inner replication {1} of outer replication {0}", tally).tolist()
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
    ecdf = _run_chunks(reps, threads, d, n, m, pivot_kind, seed, 1, "replication {0}",
                       _ecdf_counts)[:-1] / reps
    return float(np.max(np.abs(ecdf - _kdist_phi())))
