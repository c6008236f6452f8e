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
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .errors import DegenerateWeights, MissingF
from .intervals import ConfidenceInterval, _interval
from .pivots import _exact_pivot, _ratio_estimate, _sample
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


def _f_mn(counts: np.ndarray, indicators: np.ndarray, m: int) -> float:
    """F_mn(x) = sum w_i 1(x_i <= x) / m; every partial sum is an integer, so exact."""
    return float((counts * indicators).sum()) / m


def _check_x(x: float) -> None:
    """Refuse a NaN evaluation point, at which every indicator is 0; +-inf are points."""
    if math.isnan(x):
        raise ValueError(f"x must not be NaN, got {x}")


def _edf_values(x_data, x: float, w: WeightVector) -> tuple[np.ndarray, float, float]:
    """The indicators 1(x_i <= x) of a checked sample, F_n(x) and F_mn(x)."""
    _check_x(x)
    ind = (_sample(x_data, w) <= x).astype(np.float64)
    idx, counts_nz = w.nonzero()
    return ind, float(ind.sum()) / w.n, _f_mn(counts_nz, ind[idx], w.m)


def edf_point(x_data, w: WeightVector, x: float) -> EdfPoint:
    """All four EDF-type values at x in one pass over the indices."""
    ind, f_n, f_mn = _edf_values(x_data, x, w)
    return EdfPoint(x=x, f_n=f_n, f_mn=f_mn, _f_hat=_ratio_estimate(ind, w))


def edf_pivot(s: str, x_data, w: WeightVector, x: float,
              f_x: float | None = None) -> float:
    """Evaluate one of the four EDF pivots at x."""
    if s not in EDF_PIVOTS:
        raise ValueError(f"s must be one of {EDF_PIVOTS}, got {s!r}")
    if s in ("hat2", "hathat2") and f_x is None:
        raise MissingF(f"{s} requires the distribution value F(x)")
    if f_x is not None and not 0.0 <= f_x <= 1.0:
        raise ValueError(f"f_x must be a probability in [0, 1], got {f_x}")

    ind, f_n, f_mn = _edf_values(x_data, x, w)
    f_scale = f_n if s in ("hat1", "hat2") else f_mn
    return _exact_pivot(w, ind, None if s in ("hat1", "hathat1") else f_x,
                        f_scale * (1.0 - f_scale), f"{s} scale is zero at x={x}")


def ci_edf_from_stats(f_mn: float, wstats: WeightStats, x: float, alpha: float,
                      sided: str = "two", n: int | None = None,
                      m: int | None = None) -> ConfidenceInterval:
    """Pointwise interval for F_n(x) from sub-sample quantities alone."""
    meta: dict[str, Any] = {"n": n, "m": m, "pivot": "hathat1", "x": x}
    return _clamp_unit(_interval("edf_value", alpha, sided,
                                 lambda: (f_mn, f_mn * (1.0 - f_mn)), wstats, meta))


def ci_edf(x_data, w: WeightVector, x: float, alpha: float,
           sided: str = "two") -> ConfidenceInterval:
    """Pointwise interval for F_n(x); also covers F(x) + eps_n(x)."""
    return ci_edf_from_stats(_edf_values(x_data, x, w)[2], weight_stats(w), x, alpha, sided,
                             n=w.n, m=w.m)


def ci_df(x_data, w: WeightVector, x: float, alpha: float,
          sided: str = "two") -> ConfidenceInterval:
    """Pointwise interval for the distribution value F(x)."""
    def center_scale2() -> tuple[float, float]:
        point = edf_point(x_data, w, x)
        return point.f_hat, point.s2_mn

    meta: dict[str, Any] = {"n": w.n, "m": w.m, "pivot": "hathat2", "x": x}
    return _clamp_unit(_interval("df_value", alpha, sided, center_scale2,
                                 weight_stats(w), meta, ratio=True))


def _clamp_unit(ci: ConfidenceInterval) -> ConfidenceInterval:
    """Clamp endpoints into [0, 1], keeping the raw endpoints in meta."""
    lower = max(0.0, ci.lower)
    upper = min(1.0, ci.upper)
    if lower == ci.lower and upper == ci.upper:
        return ci
    meta = {**ci.meta, "clamped": True, "raw_lower": ci.lower, "raw_upper": ci.upper}
    return replace(ci, lower=lower, upper=upper, meta=meta)


def dkw_bound(n: int, eps: float) -> float:
    """min(1, 2 exp(-2 n eps^2)): the uniform EDF deviation bound."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    return min(1.0, 2.0 * math.exp(-2.0 * n * eps * eps))
