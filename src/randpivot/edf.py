"""Empirical-distribution-function analogues of the mean machinery.

At an evaluation point x the indicator sample 1(x_i <= x) replaces the
data, so the sample s.d. becomes sqrt(F_n(1-F_n)) and the sub-sample s.d.
becomes sqrt(F_mn(1-F_mn)).  Four studentized pivots follow:

    hat1    = sum d_i 1(x_i<=x)          / (sqrt(F_n (1-F_n))  * sq)
    hathat1 = sum d_i 1(x_i<=x)          / (sqrt(F_mn(1-F_mn)) * sq)
    hat2    = sum |d_i| (1(x_i<=x)-F(x)) / (sqrt(F_n (1-F_n))  * sq)
    hathat2 = sum |d_i| (1(x_i<=x)-F(x)) / (sqrt(F_mn(1-F_mn)) * sq)

with d_i = w_i/m - 1/n and sq = sqrt(sum d_i^2).  The 1-pivots target the
EDF value F_n(x), the 2-pivots the distribution value F(x).  Indicators
use <= (right-continuous EDF).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DegenerateWeights, MissingF, ZeroScale
from .intervals import ConfidenceInterval, _assemble, _z_for
from .weights import WeightStats, WeightVector, weight_stats

__all__ = ["EdfPoint", "edf_point", "edf_pivot", "ci_edf", "ci_edf_from_stats",
           "ci_df", "dkw_bound"]

EDF_PIVOTS = ("hat1", "hat2", "hathat1", "hathat2")


@dataclass(frozen=True)
class EdfPoint:
    """EDF, randomized EDF, ratio EDF and indicator variance at one x."""

    x: float
    f_n: float
    f_mn: float
    _f_hat: float | None

    @property
    def s2_mn(self) -> float:
        return self.f_mn * (1.0 - self.f_mn)

    @property
    def f_hat(self) -> float:
        if self._f_hat is None:
            raise DegenerateWeights("ratio EDF undefined: all weight deviations are zero")
        return self._f_hat


def _indicators(x_data, x: float, w: WeightVector) -> np.ndarray:
    ind = (np.asarray(x_data, dtype=np.float64) <= x).astype(np.float64)
    if ind.size != w.n:
        raise ValueError(f"data length {ind.size} != weight length {w.n}")
    return ind


def _edf_values(ind: np.ndarray, w: WeightVector) -> tuple[float, float]:
    """F_n(x) and F_mn(x) from the indicators 1(x_i <= x)."""
    idx, counts_nz = w.nonzero()
    return float(ind.sum()) / w.n, float((counts_nz * ind[idx]).sum()) / w.m


def edf_point(x_data, w: WeightVector, x: float) -> EdfPoint:
    """All four EDF-type values at x in one pass over the indices."""
    ind = _indicators(x_data, x, w)
    f_n, f_mn = _edf_values(ind, w)

    abs_dev = np.abs(w.counts / w.m - 1.0 / w.n)
    sabs = math.fsum(abs_dev)
    f_hat = math.fsum(abs_dev * ind) / sabs if sabs > 0.0 else None
    return EdfPoint(x=x, f_n=f_n, f_mn=f_mn, _f_hat=f_hat)


def edf_pivot(s: str, x_data, w: WeightVector, x: float,
              f_x: float | None = None) -> float:
    """Evaluate one of the four EDF pivots at x."""
    if s not in EDF_PIVOTS:
        raise ValueError(f"s must be one of {EDF_PIVOTS}, got {s!r}")
    if s in ("hat2", "hathat2") and f_x is None:
        raise MissingF(f"{s} requires the distribution value F(x)")

    ind = _indicators(x_data, x, w)
    wstats = weight_stats(w)
    if wstats.degenerate:
        raise DegenerateWeights("all weights equal m/n")

    f_n, f_mn = _edf_values(ind, w)
    f_scale = f_n if s in ("hat1", "hat2") else f_mn
    scale2 = f_scale * (1.0 - f_scale)
    if scale2 <= 0.0:
        raise ZeroScale(f"indicator variance is zero at x={x}")

    dev = w.counts / w.m - 1.0 / w.n
    if s in ("hat1", "hathat1"):
        num = math.fsum(dev * ind)
    else:
        num = math.fsum(np.abs(dev) * (ind - f_x))
    return num / (math.sqrt(scale2) * math.sqrt(wstats.sum_sq_dev))


def ci_edf_from_stats(f_mn: float, wstats: WeightStats, x: float, alpha: float,
                      sided: str = "two", n: int | None = None,
                      m: int | None = None) -> ConfidenceInterval:
    """Pointwise interval for F_n(x) from sub-sample quantities alone."""
    if wstats.degenerate:
        raise DegenerateWeights("all weights equal m/n")
    s2 = f_mn * (1.0 - f_mn)
    if s2 <= 0.0:
        raise ZeroScale(f"F_mn(x) in {{0, 1}} at x={x}; the CLT scale is zero")
    z = _z_for(alpha, sided)
    half = z * math.sqrt(s2) * math.sqrt(wstats.sum_sq_dev)
    meta: dict[str, Any] = {"n": n, "m": m, "pivot": "hathat1", "x": x}
    ci = _assemble("edf_value", alpha, f_mn, half, sided, meta)
    return _clamp_unit(ci)


def ci_edf(x_data, w: WeightVector, x: float, alpha: float,
           sided: str = "two") -> ConfidenceInterval:
    """Pointwise interval for F_n(x); also covers F(x) + eps_n(x)."""
    _, f_mn = _edf_values(_indicators(x_data, x, w), w)
    return ci_edf_from_stats(f_mn, weight_stats(w), x, alpha, sided,
                             n=w.n, m=w.m)


def ci_df(x_data, w: WeightVector, x: float, alpha: float,
          sided: str = "two") -> ConfidenceInterval:
    """Pointwise interval for the distribution value F(x)."""
    wstats = weight_stats(w)
    if wstats.degenerate:
        raise DegenerateWeights("all weights equal m/n")
    point = edf_point(x_data, w, x)
    if point.s2_mn <= 0.0:
        raise ZeroScale(f"F_mn(x) in {{0, 1}} at x={x}; the CLT scale is zero")
    z = _z_for(alpha, sided)
    half = z * math.sqrt(point.s2_mn) * math.sqrt(wstats.sum_sq_dev) / wstats.sum_abs_dev
    meta: dict[str, Any] = {"n": w.n, "m": w.m, "pivot": "hathat2", "x": x}
    ci = _assemble("df_value", alpha, point.f_hat, half, sided, meta)
    return _clamp_unit(ci)


def _clamp_unit(ci: ConfidenceInterval) -> ConfidenceInterval:
    """Clamp endpoints into [0, 1], keeping the raw endpoints in meta."""
    lower = max(0.0, ci.lower)
    upper = min(1.0, ci.upper)
    if lower == ci.lower and upper == ci.upper:
        return ci
    meta = dict(ci.meta)
    meta.update(clamped=True, raw_lower=ci.lower, raw_upper=ci.upper)
    return ConfidenceInterval(
        target=ci.target, level=ci.level, lower=lower, upper=upper,
        center=ci.center, half_width=ci.half_width, sided=ci.sided, meta=meta,
    )


def dkw_bound(n: int, eps: float) -> float:
    """min(1, 2 exp(-2 n eps^2)): the uniform EDF deviation bound."""
    if n < 1:
        raise ValueError("n must be positive")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return min(1.0, 2.0 * math.exp(-2.0 * n * eps * eps))
