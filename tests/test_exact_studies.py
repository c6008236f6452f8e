"""Study estimates against their exact values on tiny discrete cells.

On a discrete family at small n a study has an exact answer: the data
vectors and the multinomial count vectors are finite, and each has an
exact probability.  A replication is redrawn until its row is valid, so
the exact coverage is P(hit and valid) / P(valid), for the pivot and for
the classical t on the same rows, and the redraws of one replication are
geometric, with mean P(invalid) / P(valid).  The pivots are written here
as the paper writes them, one (sample, weights) pair at a time, so the
check does not rest on the library's kernel.  Monte Carlo SEs follow
Morris, White & Crowther, Stat. Med. 38(11), 2019.
"""
import itertools
import math
from statistics import NormalDist

import pytest

from randpivot import (PivotKind, coverage_study, enumerate_weight_vectors, parse_dist,
                       proportion_study)

ALPHA = 0.05


def _binomial_pmf(size: int, p: float) -> dict[int, float]:
    return {k: math.comb(size, k) * p ** k * (1.0 - p) ** (size - k) for k in range(size + 1)}


def _pivot(kind: PivotKind, x: tuple, w: tuple, mu: float) -> float | None:
    """The pivot of one (sample, counts) pair, None where it is undefined:
    all d_i = w_i/m - 1/n zero, or a zero scale (S_n for G1 and T1, the
    reweighted sub-sample S_{m,n} for G2 and T2)."""
    n, m = len(x), sum(w)
    d = [wi / m - 1.0 / n for wi in w]
    ssq = sum(di * di for di in d)
    if kind.uses_subsample_scale:
        centre = sum(wi * xi for wi, xi in zip(w, x)) / m
        scale2 = sum(wi * (xi - centre) ** 2 for wi, xi in zip(w, x)) / m
    else:
        mean = sum(x) / n
        scale2 = sum((xi - mean) ** 2 for xi in x) / n
    if ssq == 0.0 or scale2 == 0.0:
        return None
    if kind.needs_mu:
        top = sum(abs(di) * (xi - mu) for di, xi in zip(d, x))
    else:
        top = sum(di * xi for di, xi in zip(d, x))
    return top / (math.sqrt(scale2) * math.sqrt(ssq))


def _student_t(x: tuple, mu: float) -> float:
    """The classical t of one sample: (mean - mu) / (s / sqrt(n)), divisor n - 1."""
    n = len(x)
    mean = sum(x) / n
    s = math.sqrt(sum((xi - mean) ** 2 for xi in x) / (n - 1))
    return (mean - mu) / (s / math.sqrt(n))


def _exact_cell(pmf: dict[int, float], n: int, kind: PivotKind,
                sided: str) -> tuple[float, float, float]:
    """Exact pivot coverage, classical coverage and redraws per replication
    of an upper- or two-sided study at m = n, by enumeration of every data
    vector and every count vector.  mu is the mean of the support; pivot and
    classical t share the normal cutoff z, met below z or within +/-z."""
    mu = sum(k * p for k, p in pmf.items())
    z = NormalDist().inv_cdf(1.0 - (ALPHA / 2.0 if sided == "two" else ALPHA))
    meets = (lambda v: abs(v) <= z) if sided == "two" else (lambda v: v <= z)
    weights = [(w, float(p)) for w, p in enumerate_weight_vectors(n, n)]
    valid = hit = t_hit = 0.0
    for x in itertools.product(pmf, repeat=n):
        px = math.prod(pmf[k] for k in x)
        for w, pw in weights:
            value = _pivot(kind, x, w, mu)
            if value is None:
                continue
            valid += px * pw
            hit += px * pw * meets(value)
            t_hit += px * pw * meets(_student_t(x, mu))
    return hit / valid, t_hit / valid, (1.0 - valid) / valid


@pytest.mark.parametrize("size,p,n,kind,sided,want", [
    (2, 0.5, 4, PivotKind.G1, "upper", (0.92408, 0.86555, 0.1869)),
    (2, 0.5, 4, PivotKind.T2, "upper", (0.91595, 0.86530, 0.4713)),
    (2, 0.5, 4, PivotKind.G1, "two", (0.88815, 0.93277, 0.1869)),
    (3, 0.3, 5, PivotKind.G2, "upper", (0.87814, 0.92981, 0.18706))])
def test_coverage_study_matches_exact_cell(size, p, n, kind, sided, want):
    reps = 20_000
    coverage, classical, redraws = _exact_cell(_binomial_pmf(size, p), n, kind, sided)
    # the enumeration agrees with an independent one, to its quoted digits
    assert (coverage, classical, redraws) == pytest.approx(want, abs=5e-5)
    report = coverage_study(parse_dist(f"binomial:{size},{p}"), n, n, kind, reps, ALPHA,
                            sided=sided, seed=1)
    for got, exact in ((report.coverage, coverage), (report.classical_coverage, classical)):
        se = math.sqrt(exact * (1.0 - exact) / reps)
        assert abs(got - exact) <= 4.0 * se, (got, exact, (got - exact) / se)
    _check_redraws(report.degenerate_count, reps, redraws)


def _check_redraws(count: int, rows: int, redraws: float) -> None:
    """A row's redraws are geometric: mean q/p and variance q/p^2, with
    p = P(valid) = 1 / (1 + redraws) and q = 1 - p; count sums `rows` of them."""
    p = 1.0 / (1.0 + redraws)
    sd = math.sqrt(rows * (1.0 - p)) / p
    assert abs(count - rows * redraws) <= 4.0 * sd, (count, rows * redraws, sd)


def test_proportion_study_matches_exact_cell():
    # Each inner row is an independent valid row, so an outer replication's
    # hits are binomial(inner, coverage) and it lands in band with the exact
    # probability sum over lo <= j/inner <= hi of C(inner, j) p^j (1-p)^(inner-j).
    # The band's edges are the shares 17/20 and 19/20 themselves, so a strict
    # comparison at either edge moves the proportion by many SEs.
    outer, inner, band = 4_000, 20, (0.85, 0.95)
    coverage, classical, redraws = _exact_cell(_binomial_pmf(2, 0.5), 4, PivotKind.G1, "upper")
    report = proportion_study(parse_dist("binomial:2,0.5"), 4, PivotKind.G1, outer, inner,
                              band, ALPHA, seed=1, sided="upper")
    for got, p in ((report.proportion, coverage), (report.classical_proportion, classical)):
        exact = sum(math.comb(inner, j) * p ** j * (1.0 - p) ** (inner - j)
                    for j in range(inner + 1) if band[0] <= j / inner <= band[1])
        se = math.sqrt(exact * (1.0 - exact) / outer)
        assert abs(got - exact) <= 4.0 * se, (got, exact, (got - exact) / se)
    _check_redraws(report.degenerate_count, outer * inner, redraws)
