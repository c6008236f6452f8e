"""Tests for the error-bound evaluator and rate functions.

The headline check is a dual transcription: the bracketed polynomial and
both bound factors are re-coded here independently in exact rational
arithmetic and compared against the library's float evaluation on a grid.
"""
import math
from fractions import Fraction

import pytest

from randpivot import (BadMoments, BoundInputs, EpsOutOfRange,
                       HypothesisViolated, NumericOverflow, chebyshev_p_s2, hypothesis_margin,
                       rate, error_bound)


def _bound_rational(b: BoundInputs, plus_eps2: bool = False) -> Fraction:
    """Independent transcription of the bound, exact in the rationals."""
    n, m = Fraction(b.n), Fraction(b.m)
    delta, eps = Fraction(b.delta), Fraction(b.eps)
    eps1, eps2 = Fraction(b.eps1), Fraction(b.eps2)
    p, c, rho3 = Fraction(b.p_s2_dev), Fraction(b.c_be), Fraction(b.rho3)

    sign = 1 if plus_eps2 else -1
    dn = (delta - (eps1 / eps) ** 2 - p + sign * eps2) / (c * rho3)
    one_over_n = 1 / n
    q = 1 - one_over_n

    sixth = 15 * m**3 / n**3 + 25 * m**2 / n**2 + m / n
    pi1 = dn**-2 * (1 - eps) ** -3 * q**-3 * (n / m**3 + n**2 / m**3) * sixth

    brace = (
        q / (n**3 * m**3)
        + q**4 / m**3
        + (m - 1) * q**2 / (n * m**3)
        + 4 * (n - 1) / (n**3 * m)
        + 1 / m**2
        - 1 / (n * m**2)
        + (n - 1) / (n**3 * m**3)
        + 4 * (n - 1) / (n**2 * m**3)
        - q**2 / m**2
    )
    pi2 = eps**-2 * m**2 / q * brace
    return pi1 + pi2


BASE = dict(delta=0.5, eps=0.1, eps1=0.01, eps2=0.05, rho3=2.0, p_s2_dev=0.01)


class TestDeltaN:
    def test_arithmetic_example(self):
        b = BoundInputs(n=10, m=10, delta=0.5, eps=1.0, eps1=0.1, eps2=0.05,
                        rho3=2.0, p_s2_dev=0.01, c_be=0.5600)
        # (0.5 - 0.01 - 0.01 - 0.05) / (0.56 * 2) = 0.43 / 1.12
        assert hypothesis_margin(b) == pytest.approx(0.43 / 1.12, rel=1e-12)

    def test_hypothesis_gate(self):
        b = BoundInputs(n=10, m=10, delta=0.02, eps=1.0, eps1=0.1, eps2=0.05,
                        rho3=2.0, p_s2_dev=0.01)
        with pytest.raises(HypothesisViolated):
            hypothesis_margin(b)

    def test_doubling_rho3_halves_hypothesis_margin(self):
        b1 = BoundInputs(n=10, m=10, rho3=2.0, **{k: v for k, v in BASE.items() if k != "rho3"})
        b2 = BoundInputs(n=10, m=10, rho3=4.0, **{k: v for k, v in BASE.items() if k != "rho3"})
        assert hypothesis_margin(b2) == pytest.approx(hypothesis_margin(b1) / 2.0, rel=1e-14)

    def test_plus_eps2_sign(self):
        b = BoundInputs(n=10, m=10, **BASE)
        # flipping to +eps2 shifts the numerator by 2*eps2
        diff = hypothesis_margin(b, plus_eps2=True) - hypothesis_margin(b)
        assert diff == pytest.approx(2 * BASE["eps2"] / (0.56 * BASE["rho3"]), rel=1e-12)


class TestBoundInputs:
    def test_domain_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(n=1, m=10, **BASE)
        with pytest.raises(ValueError):
            BoundInputs(n=10, m=10, **{**BASE, "delta": 1.5})
        with pytest.raises(ValueError):
            BoundInputs(n=10, m=10, **{**BASE, "p_s2_dev": 1.5})

    @pytest.mark.parametrize("field", ["delta", "eps", "eps1", "eps2", "rho3", "p_s2_dev",
                                       "c_be"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            BoundInputs(n=10, m=10, **{**BASE, field: value})

    def test_continuity_flag_recorded_not_enforced(self):
        # eps = 1 needs eps2 > 2*Phi(1/2) - 1 ~= 0.3829; 0.05 fails the
        # condition but stays constructible (only strict=True rejects)
        b = BoundInputs(n=10, m=10, delta=0.5, eps=1.0, eps1=0.1, eps2=0.05,
                        rho3=2.0, p_s2_dev=0.01)
        assert not b.eps2_meets_continuity
        with pytest.raises(ValueError):
            BoundInputs(n=10, m=10, delta=0.5, eps=1.0, eps1=0.1, eps2=0.05,
                        rho3=2.0, p_s2_dev=0.01, strict=True)
        ok = BoundInputs(n=10, m=10, **BASE)
        assert ok.eps2_meets_continuity


class TestErrorBound:
    def test_dual_transcription_on_grid(self):
        ns = [2, 3, 5, 8, 13, 22, 37, 61, 100, 250]
        ms = [2, 3, 6, 12, 25, 50, 100, 400, 1000, 5000]
        checked = 0
        for n in ns:
            for m in ms:
                b = BoundInputs(n=n, m=m, **BASE)
                got = error_bound(b).raw
                want = float(_bound_rational(b))
                assert got == pytest.approx(want, rel=1e-12), (n, m)
                checked += 1
        assert checked == 100

    def test_plus_eps2_mode_evaluable_and_matches_oracle(self):
        b = BoundInputs(n=50, m=50, **BASE)
        got = error_bound(b, plus_eps2=True).raw
        want = float(_bound_rational(b, plus_eps2=True))
        assert got == pytest.approx(want, rel=1e-12)
        assert got != error_bound(b).raw

    def test_asymptotic_ratio_m_equals_n(self):
        b4 = BoundInputs(n=10**4, m=10**4, **BASE)
        b5 = BoundInputs(n=10**5, m=10**5, **BASE)
        ratio = error_bound(b4).raw / error_bound(b5).raw
        assert 5.0 <= ratio <= 20.0

    def test_n_times_bound_stabilizes(self):
        b5 = BoundInputs(n=10**5, m=10**5, **BASE)
        b6 = BoundInputs(n=10**6, m=10**6, **BASE)
        v5 = 10**5 * error_bound(b5).raw
        v6 = 10**6 * error_bound(b6).raw
        assert abs(v5 - v6) / v6 < 0.20

    def test_nonincreasing_in_delta(self):
        lo = BoundInputs(n=100, m=100, **{**BASE, "delta": 0.3})
        hi = BoundInputs(n=100, m=100, **{**BASE, "delta": 0.6})
        assert error_bound(hi).raw <= error_bound(lo).raw

    def test_positivity_and_cap(self):
        for n, m in [(2, 2), (5, 3), (50, 200), (1000, 31)]:
            res = error_bound(BoundInputs(n=n, m=m, **BASE))
            assert res.raw > 0.0
            assert res.capped == min(1.0, res.raw)

    def test_eps_out_of_range(self):
        b = BoundInputs(n=10, m=10, **{**BASE, "eps": 1.0})
        with pytest.raises(EpsOutOfRange):
            error_bound(b)


class TestFloat64Range:
    """A product that underflows to 0 is refused where the inputs are
    checked; a term that overflows float64 is refused by name, never
    returned as inf and never a ZeroDivisionError."""

    def test_underflowing_c_be_rho3_is_refused(self):
        with pytest.raises(ValueError, match=r"c_be \* rho3 underflows to 0 at "
                                             r"c_be=1e-200, rho3=1e-200"):
            BoundInputs(n=30, m=30, **{**BASE, "rho3": 1e-200}, c_be=1e-200)

    @pytest.mark.parametrize("inputs,what", [
        ({"eps": 1e-200}, r"\(eps1/eps\)\^2 overflows float64 at eps1=0.01, eps=1e-200"),
        ({"rho3": 1e200, "c_be": 1e200}, r"c_be \* rho3 overflows float64 at c_be=1e\+200"),
        ({"rho3": 1e-160, "c_be": 1e-155}, r"the margin dn overflows float64 at .*rho3=1e-160"),
        ({"rho3": 1e150, "c_be": 1e150}, r"pi1 overflows float64 at n=30, m=30, eps=0.1, "
                                         r"margin dn="),
        ({"eps": 1e-160, "eps1": 1e-170}, r"pi2 overflows float64 at n=30, m=30, eps=1e-160"),
    ])
    def test_overflowing_term_names_its_inputs(self, inputs, what):
        with pytest.raises(NumericOverflow, match=what) as raised:
            error_bound(BoundInputs(n=30, m=30, **{**BASE, **inputs}))
        assert isinstance(raised.value, OverflowError)

    def test_chebyshev_terms(self):
        with pytest.raises(NumericOverflow, match=r"sigma2\^2 overflows float64 at sigma2=1e\+200"):
            chebyshev_p_s2(100, 0.5, sigma2=1e200, mu4=3.0)
        with pytest.raises(NumericOverflow, match=r"eps1\^4 overflows float64 at eps1=1e\+100"):
            chebyshev_p_s2(100, 1e100, sigma2=1.0, mu4=3.0)
        with pytest.raises(ValueError, match=r"eps1\^4 underflows to 0 at eps1=1e-100"):
            chebyshev_p_s2(100, 1e-100, sigma2=1.0, mu4=3.0)


class TestChebyshevPS2:
    def test_degenerate_boundary_gives_zero(self):
        assert chebyshev_p_s2(100, 0.5, sigma2=1.0, mu4=1.0) == 0.0

    def test_normal_example(self):
        # mu4 = 3, sigma2 = 1, n = 100, eps1 = 0.5 -> (2/100)/0.0625 = 0.32
        assert chebyshev_p_s2(100, 0.5, sigma2=1.0, mu4=3.0) == pytest.approx(0.32, abs=1e-14)

    def test_capped_at_one(self):
        assert chebyshev_p_s2(10, 1e-3, sigma2=1.0, mu4=3.0) == 1.0

    def test_bad_moments(self):
        with pytest.raises(BadMoments):
            chebyshev_p_s2(100, 0.5, sigma2=2.0, mu4=1.0)

    @pytest.mark.parametrize("sigma2", [-1.0, -1e-300])
    def test_negative_variance_is_bad_moments(self, sigma2):
        # mu4 >= sigma2^2 holds here, so only the sign check refuses it
        with pytest.raises(BadMoments, match="negative"):
            chebyshev_p_s2(100, 0.5, sigma2=sigma2, mu4=3.0)

    @pytest.mark.parametrize("eps1,sigma2,mu4", [(math.nan, 1.0, 3.0), (0.5, math.nan, 3.0),
                                                 (0.5, 1.0, math.nan), (0.5, math.nan, math.nan),
                                                 (math.inf, 1.0, 3.0), (0.5, 1.0, math.inf)])
    def test_non_finite_rejected(self, eps1, sigma2, mu4):
        with pytest.raises(ValueError, match="finite"):
            chebyshev_p_s2(100, eps1, sigma2=sigma2, mu4=mu4)


class TestRate:
    def test_m_equals_n_is_one_over_n(self):
        for n in (1, 2, 100, 10**6):
            assert rate(n, n, "A") == pytest.approx(1.0 / n, rel=1e-15)
            assert rate(n, n, "A") == rate(n, n, "C")

    def test_remark_value(self):
        assert rate(100, 100, "A") == pytest.approx(0.01, abs=1e-15)

    def test_big_data_power_delta(self):
        assert rate(10**6, 31623, "D") == pytest.approx(1.0e-3, rel=1e-3)

    def test_big_data_loglog(self):
        r = rate(10**6, 2626, "D")
        assert r == pytest.approx(10**6 / 2626**2, rel=1e-15)
        # ~= 1/(ln ln 10^6)^2 within 3%
        assert r == pytest.approx(1.0 / math.log(math.log(10**6)) ** 2, rel=0.03)

    def test_kinds_a_b_equal_and_c_d_equal(self):
        assert rate(1000, 50, "A") == rate(1000, 50, "B")
        assert rate(1000, 50, "C") == rate(1000, 50, "D")
        # C adds the n/m^2 term
        assert rate(1000, 50, "C") == pytest.approx(0.4, abs=1e-15)
        assert rate(1000, 50, "A") == pytest.approx(0.02, abs=1e-15)
