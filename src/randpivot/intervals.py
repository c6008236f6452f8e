"""Confidence intervals from the pivots, critical values, sub-sample sizing.

Every interval comes from one recipe, _interval (z is the relevant normal
critical value, sq the square root of sum_sq_dev, sa the sum of absolute
deviations, S the studentizing scale):

    ratio-estimator center:  center +/- z * S * sq / sa   (mu: ci_mu; F(x): ci_df)
    other centers:           center +/- z * S * sq        (x-bar: ci_xbar; F_n(x): ci_edf)

S is S_n or S_{m,n} for means and sqrt(F_mn(1-F_mn)) for EDF values.

Sidedness: "two" uses z_{alpha/2} on both sides; "upper" keeps the pivot
below +z_alpha, giving [center - z*unit, +inf); "lower" mirrors it.  For
one-sided intervals the center +/- half_width identity applies to the
finite endpoint only.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ._normal import norm_ppf
from .errors import DegenerateWeights, DomainError, ZeroScale

if TYPE_CHECKING:  # the arithmetic commands import this module, and load no numpy
    from .pivots import RandomizedStats
    from .weights import WeightStats, WeightVector

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
# Version of every report's layout, CLI reports and study reports alike.
SCHEMA_VERSION = 1


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
        fields = asdict(self)
        meta = fields.pop("meta")
        return {**fields, **{f"meta_{k}": v for k, v in sorted(meta.items())}}


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
    if not 0.0 < alpha_half < 1.0 or 1.0 - alpha_half == 1.0:
        raise ValueError(f"alpha_half must be in (0, 1) with 1 - alpha_half < 1, got {alpha_half}")
    return norm_ppf(1.0 - alpha_half)


def _z_for(alpha: float, sided: str) -> float:
    if sided not in SIDES:
        raise ValueError(f"sided must be one of {SIDES}, got {sided!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if sided != "two" and alpha > 0.5:
        # one-sided alpha above 1/2 would need a negative half-width
        raise ValueError(f"one-sided alpha must be <= 0.5, got {alpha}")
    alpha_half = alpha / 2.0 if sided == "two" else alpha
    if 1.0 - alpha_half == 1.0:
        raise ValueError(f"alpha={alpha} is too small: 1 - {alpha_half} rounds to 1 in float64")
    return critical_z(alpha_half)


def _interval(target: str, alpha: float, sided: str,
              center_scale2: Callable[[], tuple[float, float]], wstats: WeightStats,
              meta: dict[str, Any], ratio: bool = False) -> ConfidenceInterval:
    """center +/- z * sqrt(scale2) * sqrt(sum d_i^2), over sum |d_i| if ratio.

    center_scale2() is called only after the degenerate-weights check: the
    ratio center and S_n are undefined (and may raise) for such weights.
    """
    if wstats.degenerate:
        raise DegenerateWeights()
    center, scale2 = center_scale2()
    if scale2 <= 0.0:
        at = f" at x={meta['x']}" if "x" in meta else ""
        raise ZeroScale(f"{meta['pivot']} scale is zero{at}")
    z = _z_for(alpha, sided)
    half = z * math.sqrt(scale2) * math.sqrt(wstats.sum_sq_dev)
    if ratio:
        half /= wstats.sum_abs_dev
    if math.isnan(half):  # z = 0 times a width that overflows float64
        half = math.inf
    return ConfidenceInterval(
        target=target, level=1.0 - alpha,
        lower=-math.inf if sided == "lower" else center - half,
        upper=math.inf if sided == "upper" else center + half,
        center=center, half_width=half, sided=sided, meta=meta,
    )


def ci_mu(x, w: WeightVector, alpha: float, variant: str = "g1",
          sided: str = "two") -> ConfidenceInterval:
    """Confidence interval for the population mean from a G-type pivot.

    variant "g1" scales by the sample s.d. S_n, "g2" by the sub-sample
    s.d. S_{m,n} (the latter needs a fourth moment to be trustworthy).
    """
    from .pivots import _ratio_estimate, _sample, _scale2
    from .weights import weight_stats
    variant = variant.lower()
    if variant not in ("g1", "g2"):
        raise ValueError(f"variant must be g1 or g2, got {variant!r}")
    x = _sample(x, w)
    return _interval("population_mean", alpha, sided,
                     lambda: (_ratio_estimate(x, w), _scale2(x, w, variant == "g2")),
                     weight_stats(w), {"n": w.n, "m": w.m, "pivot": variant}, ratio=True)


def ci_xbar(rstats: RandomizedStats, wstats: WeightStats, alpha: float,
            sided: str = "two", n: int | None = None, m: int | None = None) -> ConfidenceInterval:
    """Confidence set for the sample mean of the full data set.

    Built from sub-sample quantities alone (T2 pivot recipe).  The same
    numeric interval also covers mu + eps_n, where eps_n is the gap
    between the sample and population means; for big n that gap is
    negligible, so the interval doubles as one for mu.
    """
    meta = {"n": n, "m": m, "pivot": "t2", "also_covers": "mu + eps_n"}
    return _interval("sample_mean", alpha, sided, lambda: (rstats.rmean, rstats.rvar),
                     wstats, meta)


def _check_m(n: int, m: int) -> int:
    """m, a weight total taken as given, refused below 1 or above n^2 - 1."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if m > n * n - 1:  # from m = n^2 the rate max(m/n^2, 1/m) is at least 1
        raise ValueError(f"m must be at most n^2 - 1 = {n * n - 1} at n={n}, got {m}")
    return m


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
