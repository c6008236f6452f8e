"""Explicit upper bound on the normal-approximation error of the pivots.

The bound controls, with probability over the weights, the sup-distance
between a pivot's conditional distribution function and the standard
normal.  It is the sum of two terms:

    pi1 = dn^-2 (1-eps)^-3 (1-1/n)^-3 (n/m^3 + n^2/m^3)
          * (15 m^3/n^3 + 25 m^2/n^2 + m/n)
    pi2 = eps^-2 m^2/(1-1/n) * {nine-term polynomial in 1/n, 1/m}

where dn = (delta - (eps1/eps)^2 - p - eps2) / (C * rho3), p is an upper
bound on P(|S_n^2 - sigma^2| > eps1^2), rho3 the standardized third
absolute moment, and C a universal Berry-Esseen-type constant.

The eps2 term in dn's numerator is subtracted by default, matching the
hypothesis inequality; ``plus_eps2=True`` evaluates the +eps2 variant for
comparison.  The factor (15 m^3/n^3 + 25 m^2/n^2 + m/n) overstates the
exact sixth central moment of a single weight count (see
weights.exact_weight_moment), so the evaluated bound is valid but mildly
conservative.

A term that overflows float64 raises NumericOverflow naming the inputs
behind it, so no evaluated bound is infinite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._normal import norm_cdf
from .errors import BadMoments, EpsOutOfRange, HypothesisViolated, NumericOverflow

__all__ = ["BoundInputs", "BoundResult", "hypothesis_margin", "error_bound", "chebyshev_p_s2", "rate"]

# Default universal constant: Shevtsova's Berry-Esseen constant for sums
# of independent, non-identically distributed summands, which is the case
# of the weighted sums here (her i.i.d. constant, 0.4748, does not apply).
# The constant is a user-settable input.
DEFAULT_C_BE = 0.5600


def _finite(term: Callable[[], float], what: str, at: str) -> float:
    """term(), refused with NumericOverflow naming what and the inputs at
    when it overflows float64, whether Python raises (x ** k, int to
    float) or returns inf (x * y, x / y); 0.0 ** -k overflows too."""
    try:
        value = term()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise NumericOverflow(f"{what} overflows float64 at {at}")
    return value


@dataclass(frozen=True)
class BoundInputs:
    """Parameters of the error bound.

    Numeric domains are validated here.  The hypothesis inequality
    delta > (eps1/eps)^2 + p_s2_dev + eps2 is NOT enforced at construction
    (``hypothesis_margin`` raises HypothesisViolated instead), so that
    violating inputs remain expressible.  Whether eps2 dominates the
    normal-continuity modulus sup_t [Phi(t+eps) - Phi(t)] is recorded in
    ``eps2_meets_continuity``; pass strict=True to reject inputs that
    fail it.
    """

    n: int
    m: int
    delta: float
    eps: float
    eps1: float
    eps2: float
    rho3: float
    p_s2_dev: float
    c_be: float = DEFAULT_C_BE
    strict: bool = False

    def __post_init__(self):
        if self.n < 2 or self.m < 1:
            raise ValueError("need n >= 2 and m >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.eps <= 0.0 or self.eps1 <= 0.0 or self.eps2 <= 0.0:
            raise ValueError("eps, eps1, eps2 must be positive")
        if self.rho3 <= 0.0 or self.c_be <= 0.0:
            raise ValueError("rho3 and c_be must be positive")
        if not 0.0 <= self.p_s2_dev <= 1.0:
            raise ValueError("p_s2_dev must be a probability")
        if not all(map(math.isfinite, (self.eps, self.eps1, self.eps2, self.rho3, self.c_be))):
            raise ValueError("eps, eps1, eps2, rho3 and c_be must be finite")
        at = f"c_be={self.c_be}, rho3={self.rho3}"
        if _finite(lambda: self.c_be * self.rho3, "c_be * rho3", at) == 0.0:
            raise ValueError(f"c_be * rho3 underflows to 0 at {at}")
        if self.strict and not self.eps2_meets_continuity:
            raise ValueError(
                f"eps2={self.eps2} does not dominate the continuity modulus "
                f"{self.continuity_modulus:.6f} of Phi at eps={self.eps}"
            )

    @property
    def continuity_modulus(self) -> float:
        """sup_t [Phi(t+eps) - Phi(t)], attained at t = -eps/2."""
        return norm_cdf(self.eps / 2.0) - norm_cdf(-self.eps / 2.0)

    @property
    def eps2_meets_continuity(self) -> bool:
        return self.eps2 > self.continuity_modulus


@dataclass(frozen=True)
class BoundResult:
    """Raw bound (may exceed 1) plus a capped-at-1 convenience value."""

    raw: float
    pi1: float
    pi2: float
    margin: float

    @property
    def capped(self) -> float:
        return min(1.0, self.raw)


def hypothesis_margin(b: BoundInputs, plus_eps2: bool = False) -> float:
    """The normalized hypothesis margin dn; must be positive.

    plus_eps2=True flips the sign of eps2 in the numerator (the variant
    form) instead of the default corrected -eps2.
    """
    sign = 1.0 if plus_eps2 else -1.0
    ratio2 = _finite(lambda: (b.eps1 / b.eps) ** 2, "(eps1/eps)^2", f"eps1={b.eps1}, eps={b.eps}")
    num = b.delta - ratio2 - b.p_s2_dev + sign * b.eps2
    if num <= 0.0:
        raise HypothesisViolated(
            f"delta={b.delta} does not exceed (eps1/eps)^2 + p + eps2 = "
            f"{ratio2 + b.p_s2_dev + b.eps2:.6g}"
        )
    return _finite(lambda: num / (b.c_be * b.rho3), "the margin dn",
                   f"delta={b.delta}, c_be={b.c_be}, rho3={b.rho3}")


def _pi2_brace(n: int, m: int) -> float:
    """The nine-term polynomial factor of pi2, transcribed term by term."""
    q = 1.0 - 1.0 / n
    return math.fsum([
        q / (n ** 3 * m ** 3),
        q ** 4 / m ** 3,
        (m - 1) * q ** 2 / (n * m ** 3),
        4.0 * (n - 1) / (n ** 3 * m),
        1.0 / m ** 2,
        -1.0 / (n * m ** 2),
        (n - 1) / (n ** 3 * m ** 3),
        4.0 * (n - 1) / (n ** 2 * m ** 3),
        -(q ** 2) / m ** 2,
    ])


def error_bound(b: BoundInputs, plus_eps2: bool = False) -> BoundResult:
    """Evaluate the full error bound pi1 + pi2.

    The bound applies to both the G- and T-type pivots; for the T case the
    exceedance threshold in the bounded probability is read as eps rather
    than delta, with no change to the value computed here.  Values above 1
    are returned as-is (the probability bound is then vacuous).
    """
    if b.eps >= 1.0:
        raise EpsOutOfRange(f"eps={b.eps} must be < 1 for the (1-eps)^-3 factor")
    dn = hypothesis_margin(b, plus_eps2=plus_eps2)
    n, m = b.n, b.m
    q = 1.0 - 1.0 / n

    def pi1() -> float:
        sixth = 15.0 * m ** 3 / n ** 3 + 25.0 * m ** 2 / n ** 2 + m / n
        return dn ** -2 * (1.0 - b.eps) ** -3 * q ** -3 * (n / m ** 3 + n ** 2 / m ** 3) * sixth

    at = f"n={n}, m={m}, eps={b.eps}"
    p1 = _finite(pi1, "pi1", f"{at}, margin dn={dn}")
    p2 = _finite(lambda: b.eps ** -2 * m ** 2 / q * _pi2_brace(n, m), "pi2", at)
    return BoundResult(raw=_finite(lambda: p1 + p2, "pi1 + pi2", at), pi1=p1, pi2=p2, margin=dn)


def chebyshev_p_s2(n: int, eps1: float, sigma2: float, mu4: float) -> float:
    """First-order Chebyshev bound for P(|S_n^2 - sigma^2| > eps1^2).

    Uses Var(S_n^2) ~= (mu4 - sigma^4)/n and caps the result at 1.
    """
    if not all(map(math.isfinite, (eps1, sigma2, mu4))):
        raise ValueError("eps1, sigma2 and mu4 must be finite")
    if eps1 <= 0.0:
        raise ValueError("eps1 must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    if sigma2 < 0.0:
        raise BadMoments(f"sigma2={sigma2} is negative")
    sigma4 = _finite(lambda: sigma2 ** 2, "sigma2^2", f"sigma2={sigma2}")
    if mu4 < sigma4:
        raise BadMoments(f"mu4={mu4} < sigma2^2={sigma4}")
    eps1_4 = _finite(lambda: eps1 ** 4, "eps1^4", f"eps1={eps1}")
    if eps1_4 == 0.0:
        raise ValueError(f"eps1^4 underflows to 0 at eps1={eps1}")
    return min(1.0, (mu4 - sigma4) / n / eps1_4)


def rate(n: int, m: int, kind: str) -> float:
    """Asymptotic error rate of the pivot CLTs.

    Kinds A and B (first-scale pivots): max(m/n^2, 1/m).
    Kinds C and D (sub-sample-scale pivots): additionally n/m^2.
    With m = n all four collapse to 1/n.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    kind = kind.upper()
    if kind in ("A", "B"):
        return max(m / n ** 2, 1.0 / m)
    if kind in ("C", "D"):
        return max(m / n ** 2, 1.0 / m, n / m ** 2)
    raise ValueError(f"kind must be one of A, B, C, D; got {kind!r}")
