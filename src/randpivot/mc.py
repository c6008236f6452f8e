"""Deterministic Monte Carlo studies: coverage, band proportions, KS distance.

All three studies run on one row engine.  A row is one (sample, weights)
pair; a block of rows is evaluated by one call each of the vectorized
pivot kernel and the classical Student t kernel (divisor n-1, whose exact
cutoffs t_{alpha,n-1} are exact-size under normal data).  Rows with
degenerate weights or a vanishing scale are redrawn by one helper, at
most MAX_REDRAWS draws per row, and counted.

Draws come from counter-based streams keyed by (seed, indices), so a
report never depends on how rows are grouped into blocks or processes.
coverage_study and kolmogorov_distance key replication r at attempt a by
stream(seed, r, a), the draws a single-sample pivot or ci_mu call on
gen_sample then draw_weights would see; proportion_study keys outer
replication o by (seed, o) and its redraws by (seed, o, a).
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from ._normal import norm_cdf
from .errors import BadParams, RandPivotError, TooFewObservations
from .intervals import _z_for
from .pivots import PivotKind
from .rng import stream
from .weights import draw_indices

__all__ = [
    "SCHEMA_VERSION", "DistributionSpec", "parse_dist", "gen_sample",
    "CoverageReport", "ProportionReport", "coverage_study",
    "proportion_study", "kolmogorov_distance", "student_t_cutoff",
    "to_json", "to_csv",
]

SCHEMA_VERSION = 1
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
        if not row.valid(p):
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
        return {
            "schema_version": SCHEMA_VERSION, "kind": "coverage",
            "dist": self.dist, "n": self.n, "m": self.m, "pivot": self.pivot,
            "reps": self.reps, "alpha": self.alpha, "sided": self.sided,
            "coverage": self.coverage, "stderr": self.stderr,
            "classical_coverage": self.classical_coverage,
            "classical_cutoff": self.classical_cutoff,
            "degenerate_count": self.degenerate_count, "seed": self.seed,
        }


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
        return {
            "schema_version": SCHEMA_VERSION, "kind": "proportion",
            "dist": self.dist, "n": self.n, "m": self.m, "pivot": self.pivot,
            "outer_reps": self.outer_reps, "inner_reps": self.inner_reps,
            "alpha": self.alpha, "sided": self.sided,
            "band_low": self.band[0], "band_high": self.band[1],
            "proportion": self.proportion,
            "classical_proportion": self.classical_proportion,
            "classical_cutoff": self.classical_cutoff,
            "degenerate_count": self.degenerate_count, "seed": self.seed,
        }


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
    """Weight counts, one row per row of resampled indices."""
    rows, m = idx.shape
    flat = np.repeat(np.arange(rows, dtype=np.int64), m) * n + idx.ravel()
    return np.bincount(flat, minlength=rows * n).reshape(rows, n).astype(np.float64)


def _batch_values(kind: PivotKind, x: np.ndarray, w: np.ndarray, m: int,
                  mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized pivot values over rows; also a validity mask."""
    n = x.shape[1]
    dev = w / m - 1.0 / n
    ssq = np.einsum("ij,ij->i", dev, dev)
    if kind.uses_subsample_scale:
        rmean = (w * x).sum(axis=1) / m
        scale2 = (w * (x - rmean[:, None]) ** 2).sum(axis=1) / m
    else:
        scale2 = x.var(axis=1)
    if kind.needs_mu:
        num = (np.abs(dev) * (x - mu)).sum(axis=1)
    else:
        num = (dev * x).sum(axis=1)
    denom2 = scale2 * ssq
    valid = denom2 > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = num / np.sqrt(denom2)
    return vals, valid


def _batch_classical(x: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    n = x.shape[1]
    s1 = x.std(axis=1, ddof=1)
    valid = s1 > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (x.mean(axis=1) - mu) / (s1 / math.sqrt(n))
    return t, valid


def _check_sizes(n: int, m: int) -> None:
    """The sample size and weight total every study needs, checked before any draw."""
    if n < 2:
        raise TooFewObservations(f"need at least 2 observations, got n={n}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")


def _evaluate_rows(draw, d: DistributionSpec, n: int, m: int, kind: PivotKind,
                   rows: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Pivot and classical t values of `rows` rows, redrawing invalid rows.

    draw(attempt, which) returns the (sample, counts) matrices of the rows
    numbered `which` at that attempt.  A row whose weights are degenerate
    or whose pivot or classical scale vanishes is drawn again, at most
    MAX_REDRAWS draws in all.  Returns both value arrays and the number
    of redraws.
    """
    mu = d.true_mean
    vals, tvals = np.empty(rows), np.empty(rows)
    which = np.arange(rows)
    redraws = 0
    for attempt in range(MAX_REDRAWS):
        x, w = draw(attempt, which)
        vals[which], ok = _batch_values(kind, x, w, m, mu)
        tvals[which], ok_t = _batch_classical(x, mu)
        which = which[~(ok & ok_t)]
        if which.size == 0:
            return vals, tvals, redraws
        redraws += which.size
    raise RandPivotError(
        f"{which.size} of {rows} rows had {MAX_REDRAWS} consecutive degenerate "
        f"draws; the configuration {d.label()}, n={n}, m={m} looks unusable"
    )


def _draw_replications(d: DistributionSpec, n: int, m: int, seed: int, first: int,
                       attempt: int, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Replication r = first + i draws its sample, then its m resampled
    # indices (as draw_weights would), from stream(seed, r, attempt).
    x = np.empty((which.size, n))
    idx = np.empty((which.size, m), dtype=np.int64)
    for row, i in enumerate(which):
        rng = stream(seed, first + i, attempt)
        x[row] = gen_sample(d, n, rng)
        idx[row] = draw_indices(n, m, rng)
    return x, _counts_matrix(idx, n)


# Element budget of one block's sample and index matrices.  Every
# replication has its own stream, so the block size never changes a result.
_BLOCK_ELEMENTS = 1 << 18


def _replication_chunk(args) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """_evaluate_rows results of replications [start, stop), block by block."""
    (d, n, m, kind, seed, start, stop) = args
    step = max(1, _BLOCK_ELEMENTS // max(n, m))
    return [_evaluate_rows(partial(_draw_replications, d, n, m, seed, lo), d, n, m,
                           kind, min(lo + step, stop) - lo)
            for lo in range(start, stop, step)]


def _run_chunks(worker, total: int, threads: int, *args) -> list:
    """worker((*args, start, stop)) over about four ranges per thread of range(total)."""
    step = math.ceil(total / max(1, min(max(threads, 1) * 4, total)))
    argses = [(*args, lo, min(lo + step, total)) for lo in range(0, total, step)]
    if threads <= 1 or len(argses) <= 1:
        return [worker(a) for a in argses]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, argses))


def _replications(d: DistributionSpec, n: int, m: int, kind: PivotKind, reps: int,
                  seed: int, threads: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Pivot values, classical t values and redraws of replications 0..reps-1."""
    parts = _run_chunks(_replication_chunk, reps, threads, d, n, m, kind, seed)
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
    _check_sizes(n, m)
    if reps < 1:
        raise ValueError("reps must be positive")
    pivot_kind = PivotKind(pivot_kind)
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


def _draw_outer(d: DistributionSpec, n: int, m: int, seed: int, o: int,
                attempt: int, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Outer replication o draws its whole inner block from stream(seed, o),
    # and the rows still invalid at attempt a from stream(seed, o, a).
    rng = stream(seed, o, attempt) if attempt else stream(seed, o)
    rows = which.size
    x = gen_sample(d, rows * n, rng).reshape(rows, n)
    return x, _counts_matrix(draw_indices(n, rows * m, rng).reshape(rows, m), n)


def _proportion_chunk(args) -> tuple[int, int, int]:
    (d, n, m, kind, z, cutoff, sided, band, seed, inner, start, stop) = args
    lo, hi = band
    in_band = t_in_band = redraws = 0
    for o in range(start, stop):
        draw = partial(_draw_outer, d, n, m, seed, o)
        vals, tvals, rd = _evaluate_rows(draw, d, n, m, kind, inner)
        redraws += rd
        cov = float(_covered(vals, z, sided).mean())
        t_cov = float(_covered(tvals, cutoff, sided).mean())
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
    _check_sizes(n, m)
    if outer_reps < 1 or inner_reps < 1:
        raise ValueError("outer_reps and inner_reps must be positive")
    if not 0.0 <= band[0] <= band[1] <= 1.0:
        raise ValueError(f"band must satisfy 0 <= lo <= hi <= 1, got {tuple(band)}")
    pivot_kind = PivotKind(pivot_kind)
    z, cutoff = _cutoffs(alpha, sided, classical_cutoff, n)
    parts = _run_chunks(_proportion_chunk, outer_reps, threads, d, n, m, pivot_kind,
                        z, cutoff, sided, tuple(band), seed, inner_reps)
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


def kolmogorov_distance(pivot_kind: PivotKind, d: DistributionSpec, n: int,
                        m: int, reps: int, seed: int = 0,
                        threads: int = 1) -> float:
    """Sup over a fixed 512-point grid of |ECDF(pivot values) - Phi|."""
    _check_sizes(n, m)
    if reps < 1:
        raise ValueError("reps must be positive")
    pivot_kind = PivotKind(pivot_kind)
    values = np.sort(_replications(d, n, m, pivot_kind, reps, seed, threads)[0])
    ecdf = np.searchsorted(values, KDIST_GRID, side="right") / reps
    phi = np.array([norm_cdf(t) for t in KDIST_GRID])
    return float(np.max(np.abs(ecdf - phi)))


def to_json(report, timestamp: str | None = None) -> str:
    """Serialize one report (any dataclass with to_dict) to JSON."""
    payload = report.to_dict()
    if timestamp is not None:
        payload["timestamp"] = timestamp
    return json.dumps(payload, sort_keys=True)


def to_csv(reports: Iterable) -> str:
    """Serialize reports of one kind to CSV, one row per report."""
    reports = list(reports)
    if not reports:
        return ""
    rows = [r.to_dict() for r in reports]
    fields = list(rows[0].keys())
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(str(row[f]) for f in fields))
    return "\n".join(lines) + "\n"
