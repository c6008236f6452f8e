"""Confidence intervals from the pivots, critical values, sub-sample sizing.

Interval recipes (z is the relevant normal critical value, sq the square
root of sum_sq_dev, sa the sum of absolute deviations):

    population mean:  ratio_mean +/- z * S * sq / sa   (S = S_n or S_{m,n})
    sample mean:      rmean      +/- z * S_{m,n} * sq

Sidedness: "two" uses z_{alpha/2} on both sides; "upper" keeps the pivot
below +z_alpha, giving [center - z*unit, +inf); "lower" mirrors it.  For
one-sided intervals the center +/- half_width identity applies to the
finite endpoint only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ._normal import norm_ppf
from .errors import DegenerateWeights, DomainError, ZeroScale
from .pivots import (RandomizedStats, _ratio_estimate, randomized_stats_from_nonzero,
                     sample_stats)
from .weights import WeightStats, WeightVector, weight_stats

__all__ = [
    "ConfidenceInterval",
    "PowerDelta",
    "LogLog",
    "Fixed",
    "SizingPolicy",
    "critical_z",
    "ci_mu",
    "ci_xbar",
    "subsample_size",
    "parse_policy",
]

SIDES = ("two", "upper", "lower")


@dataclass(frozen=True)
class ConfidenceInterval:
    """A level-(1-alpha) confidence interval for one of the four targets."""

    target: str  # population_mean | sample_mean | edf_value | df_value
    level: float
    lower: float
    upper: float
    center: float
    half_width: float
    sided: str = "two"
    meta: dict[str, Any] = field(default_factory=dict)

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def to_dict(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "level": self.level,
            "lower": self.lower,
            "upper": self.upper,
            "center": self.center,
            "half_width": self.half_width,
            "sided": self.sided,
            **{f"meta_{k}": v for k, v in sorted(self.meta.items())},
        }


@dataclass(frozen=True)
class PowerDelta:
    """m = round(n^(1/2 + delta)) with 0 < delta < 1/2."""

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must be in (0, 1/2), got {self.delta}")

    def __str__(self) -> str:
        return f"power-delta:{self.delta:g}"


@dataclass(frozen=True)
class LogLog:
    """m = round(sqrt(n) * ln ln n)."""

    def __str__(self) -> str:
        return "loglog"


@dataclass(frozen=True)
class Fixed:
    """m fixed by the caller."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be positive")

    def __str__(self) -> str:
        return f"fixed:{self.m}"


SizingPolicy = PowerDelta | LogLog | Fixed


def parse_policy(text: str) -> SizingPolicy:
    """Parse 'power-delta:D', 'loglog', or 'fixed:M' / a bare integer."""
    t = text.strip().lower()
    if t == "loglog":
        return LogLog()
    if t.startswith("power-delta:"):
        return PowerDelta(float(t.split(":", 1)[1]))
    if t.startswith("fixed:"):
        return Fixed(int(t.split(":", 1)[1]))
    try:
        return Fixed(int(t))
    except ValueError:
        raise ValueError(f"cannot parse sizing policy {text!r}") from None


def critical_z(alpha_half: float) -> float:
    """The z with P(Z >= z) = alpha_half, via the rational inverse-Phi."""
    if not 0.0 < alpha_half < 1.0:
        raise ValueError(f"alpha_half must be in (0, 1), got {alpha_half}")
    return norm_ppf(1.0 - alpha_half)


def _z_for(alpha: float, sided: str) -> float:
    if sided not in SIDES:
        raise ValueError(f"sided must be one of {SIDES}, got {sided!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if sided != "two" and alpha > 0.5:
        # one-sided alpha above 1/2 would need a negative half-width
        raise ValueError(f"one-sided alpha must be <= 0.5, got {alpha}")
    return critical_z(alpha / 2.0 if sided == "two" else alpha)


def _assemble(target: str, alpha: float, center: float, half_width: float,
              sided: str, meta: dict[str, Any]) -> ConfidenceInterval:
    lower = center - half_width
    upper = center + half_width
    if sided == "upper":
        upper = math.inf
    elif sided == "lower":
        lower = -math.inf
    return ConfidenceInterval(
        target=target, level=1.0 - alpha, lower=lower, upper=upper,
        center=center, half_width=half_width, sided=sided, meta=meta,
    )


def ci_mu(x, w: WeightVector, alpha: float, variant: str = "g1",
          sided: str = "two") -> ConfidenceInterval:
    """Confidence interval for the population mean from a G-type pivot.

    variant "g1" scales by the sample s.d. S_n, "g2" by the sub-sample
    s.d. S_{m,n} (the latter needs a fourth moment to be trustworthy).
    """
    variant = variant.lower()
    if variant not in ("g1", "g2"):
        raise ValueError(f"variant must be g1 or g2, got {variant!r}")
    x = np.asarray(x, dtype=np.float64)
    wstats = weight_stats(w)
    if wstats.degenerate:
        raise DegenerateWeights("all weights equal m/n")
    center = _ratio_estimate(x, w)
    if variant == "g1":
        scale = sample_stats(x).sd
    else:
        idx, counts_nz = w.nonzero()
        scale = math.sqrt(randomized_stats_from_nonzero(x[idx], counts_nz, w.m)[1])
    if scale == 0.0:
        raise ZeroScale(f"{variant} scale is zero")

    z = _z_for(alpha, sided)
    half = z * scale * math.sqrt(wstats.sum_sq_dev) / wstats.sum_abs_dev
    meta = {"n": w.n, "m": w.m, "pivot": variant}
    return _assemble("population_mean", alpha, center, half, sided, meta)


def ci_xbar(rstats: RandomizedStats, wstats: WeightStats, alpha: float,
            sided: str = "two", n: int | None = None, m: int | None = None) -> ConfidenceInterval:
    """Confidence set for the sample mean of the full data set.

    Built from sub-sample quantities alone (T2 pivot recipe).  The same
    numeric interval also covers mu + eps_n, where eps_n is the gap
    between the sample and population means; for big n that gap is
    negligible, so the interval doubles as one for mu.
    """
    if wstats.degenerate:
        raise DegenerateWeights("all weights equal m/n")
    if rstats.rvar == 0.0:
        raise ZeroScale("sub-sample variance is zero")
    z = _z_for(alpha, sided)
    half = z * rstats.rsd * math.sqrt(wstats.sum_sq_dev)
    meta = {"n": n, "m": m, "pivot": "t2", "also_covers": "mu + eps_n"}
    return _assemble("sample_mean", alpha, rstats.rmean, half, sided, meta)


def subsample_size(n: int, policy: SizingPolicy) -> int:
    """Map the data size n to the weight total m under a sizing policy.

    Rounding is round-half-to-even; the result is clamped to [2, n^2 - 1].
    The LogLog policy uses natural logarithms and needs ln ln n > 0.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if isinstance(policy, PowerDelta):
        raw = round(n ** (0.5 + policy.delta))
    elif isinstance(policy, LogLog):
        if n <= math.e:
            raise DomainError(f"log log n is not positive for n={n}")
        raw = round(math.sqrt(n) * math.log(math.log(n)))
    elif isinstance(policy, Fixed):
        raw = policy.m
    else:
        raise TypeError(f"unknown sizing policy {policy!r}")
    return max(2, min(int(raw), n * n - 1))
