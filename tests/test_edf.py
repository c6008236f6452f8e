"""Tests for the EDF machinery: point values, pivots, intervals, DKW."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpivot import (ConfidenceInterval, DegenerateWeights, MissingF, WeightVector,
                       ZeroScale, ci_df, ci_edf, critical_z, dkw_bound, draw_weights,
                       edf_pivot, edf_point, enumerate_weight_vectors, stream,
                       weight_stats)


@st.composite
def edf_inputs(draw):
    """(data, weights, evaluation point, alpha, sided); the point is often a
    data value, so F_n and F_mn take values strictly inside (0, 1)."""
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, 60))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n) if draw(st.booleans()) else rng.poisson(1.0, size=n) * 1.0
    w = draw_weights(n, m, rng)
    at = float(draw(st.sampled_from([rng.choice(x), rng.normal()])))
    sided = draw(st.sampled_from(["two", "upper", "lower"]))
    alpha = draw(st.floats(1e-4, 0.5 if sided != "two" else 0.9999))
    return x, w, at, alpha, sided


def _check_clamped(ci, raw):
    """ci is raw clamped into [0, 1], with the raw endpoints kept in meta."""
    assert 0.0 <= ci.lower <= ci.upper <= 1.0
    assert (ci.center, ci.half_width) == (raw.center, raw.half_width)
    assert (ci.lower, ci.upper) == (max(0.0, raw.lower), min(1.0, raw.upper))
    if (ci.lower, ci.upper) == (raw.lower, raw.upper):
        assert ci == raw and "clamped" not in ci.meta
    else:
        assert ci.meta == {**raw.meta, "clamped": True, "raw_lower": raw.lower,
                           "raw_upper": raw.upper}


def _raw_interval(target, alpha, center, half, sided, meta):
    """The unclamped interval center -/+ half, open on the side sided leaves."""
    return ConfidenceInterval(target, 1.0 - alpha,
                              -math.inf if sided == "lower" else center - half,
                              math.inf if sided == "upper" else center + half,
                              center, half, sided, meta)


def _w(counts):
    counts = np.asarray(counts)
    return WeightVector(counts=counts, m=int(counts.sum()), n=len(counts))


class TestEdfPoint:
    def test_below_all_data(self):
        p = edf_point([1.0, 2.0], _w([2, 0]), 0.5)
        assert p.f_n == 0.0 and p.f_mn == 0.0 and p.s2_mn == 0.0

    def test_at_or_above_max(self):
        p = edf_point([1.0, 2.0], _w([2, 0]), 2.0)
        assert p.f_n == 1.0 and p.f_mn == 1.0 and p.s2_mn == 0.0

    def test_hand_case(self):
        p = edf_point([1.0, 2.0], _w([2, 0]), 1.5)
        assert p.f_n == 0.5
        assert p.f_mn == 1.0
        assert p.s2_mn == 0.0
        assert p.f_hat == pytest.approx(0.5, abs=1e-15)

    def test_s2_identity(self):
        rng = stream(31)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            x = rng.normal(size=n)
            w = draw_weights(n, int(rng.integers(1, 30)), rng)
            q = float(rng.uniform(-2, 2))
            p = edf_point(x, w, q)
            assert p.s2_mn == p.f_mn * (1.0 - p.f_mn)
            assert 0.0 <= p.f_n <= 1.0 and 0.0 <= p.f_mn <= 1.0

    def test_f_mn_monotone_with_jumps_only_at_weighted_points(self):
        rng = stream(32)
        n = 12
        x = np.sort(rng.normal(size=n))
        w = draw_weights(n, 12, rng)
        grid = np.concatenate([[-10.0], x - 1e-9, x, x + 1e-9, [10.0]])
        grid.sort()
        vals = [edf_point(x, w, g).f_mn for g in grid]
        assert all(b - a >= -1e-15 for a, b in zip(vals, vals[1:]))
        # value only changes across a data point with positive weight
        for a, b, g in zip(vals, vals[1:], grid[1:]):
            if b - a > 1e-15:
                j = np.flatnonzero((x > g - 2e-9) & (x <= g))
                assert j.size and (w.counts[j] > 0).any()

    def test_degenerate_f_hat(self):
        p = edf_point([1.0, 2.0], _w([1, 1]), 1.5)
        with pytest.raises(DegenerateWeights):
            p.f_hat


class TestEdfPivot:
    def test_hat1_hand_case(self):
        val = edf_pivot("hat1", [1.0, 2.0], _w([2, 0]), 1.5)
        assert val == pytest.approx(1.41421, abs=5e-6)

    def test_hat2_symmetric_case_is_zero(self):
        val = edf_pivot("hat2", [1.0, 2.0], _w([2, 0]), 1.5, f_x=0.5)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_zero_scale_outside_range(self):
        with pytest.raises(ZeroScale):
            edf_pivot("hat1", [1.0, 2.0], _w([2, 0]), -3.0)
        with pytest.raises(ZeroScale):
            edf_pivot("hat1", [1.0, 2.0], _w([2, 0]), 99.0)

    def test_missing_f(self):
        with pytest.raises(MissingF):
            edf_pivot("hat2", [1.0, 2.0], _w([2, 0]), 1.5)
        with pytest.raises(MissingF):
            edf_pivot("hathat2", [1.0, 2.0], _w([2, 0]), 1.5)

    def test_hat1_equals_indicator_t1_with_replaced_scale(self):
        # exact equality on 100 random triples: the T1 numerator on the
        # indicator sample over sqrt(F_n(1-F_n)) * sqrt(sum_sq_dev)
        rng = stream(33)
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 25))
            x = rng.normal(size=n)
            w = draw_weights(n, int(rng.integers(2, 40)), rng)
            q = float(rng.uniform(x.min(), x.max()))
            ind = (x <= q).astype(np.float64)
            f_n = float(ind.sum()) / n
            if f_n in (0.0, 1.0):
                continue
            ws = weight_stats(w)
            if ws.degenerate:
                continue
            dev = w.counts / w.m - 1.0 / w.n
            want = math.fsum(dev * ind) / (math.sqrt(f_n * (1.0 - f_n)) * math.sqrt(ws.sum_sq_dev))
            assert edf_pivot("hat1", x, w, q) == want  # bitwise
            checked += 1

    @settings(max_examples=200, deadline=None)
    @given(edf_inputs(), st.floats(0.0, 1.0))
    def test_all_four_equal_inline_fsum_formula(self, case, f_x):
        x, w, at, _, _ = case
        ind = (x <= at).astype(np.float64)
        f_n = float(ind.sum()) / w.n
        f_mn = float((w.counts * ind).sum()) / w.m
        dev = w.counts / w.m - 1.0 / w.n
        ws = weight_stats(w)
        for s in ("hat1", "hat2", "hathat1", "hathat2"):
            f = f_n if s in ("hat1", "hat2") else f_mn
            if ws.degenerate:
                with pytest.raises(DegenerateWeights):
                    edf_pivot(s, x, w, at, f_x=f_x)
                continue
            if f * (1.0 - f) == 0.0:
                with pytest.raises(ZeroScale):
                    edf_pivot(s, x, w, at, f_x=f_x)
                continue
            if s in ("hat1", "hathat1"):
                num = math.fsum(dev * ind)
            else:
                num = math.fsum(np.abs(dev) * (ind - f_x))
            want = num / (math.sqrt(f * (1.0 - f)) * math.sqrt(ws.sum_sq_dev))
            assert edf_pivot(s, x, w, at, f_x=f_x) == want, s  # bitwise

    def test_enumeration_mean_of_f_mn_is_f_n(self):
        # fixed data: E_w F_{m,n}(x) == F_n(x), by exact enumeration (n <= 5)
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        for q, f_n in [(0.5, 0.2), (2.5, 0.6), (4.0, 1.0)]:
            for m in (2, 3, 5):
                total = Fraction(0)
                for counts, prob in enumerate_weight_vectors(5, m):
                    w = WeightVector(counts=np.array(counts), m=m, n=5)
                    total += prob * Fraction(edf_point(x, w, q).f_mn)
                assert float(total) == pytest.approx(f_n, abs=1e-12)

    def test_joint_mean_of_f_mn_is_f(self):
        # over data AND weights, E F_{m,n}(x) == F(x); MC with 4 sigma band
        reps, n, m = 4000, 8, 8
        vals = np.empty(reps)
        for r in range(reps):
            rng = stream(34, r)
            x = rng.uniform(0.0, 1.0, size=n)
            w = draw_weights(n, m, rng)
            vals[r] = edf_point(x, w, 0.3).f_mn
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - 0.3) < 4 * se


class TestCiEdf:
    def test_half_width_literal_value(self):
        # F_mn = 0.5, sum_sq_dev = 1e-4, two-sided alpha = 0.05:
        # half width = 1.959964 * 0.5 * 0.01
        from randpivot.edf import ci_edf_from_stats
        from randpivot.weights import WeightStats
        ws = WeightStats(1e-4, 0.02, 1e-6, 0.5)
        ci = ci_edf_from_stats(0.5, ws, x=0.0, alpha=0.05)
        assert ci.half_width == pytest.approx(0.0098, abs=5e-6)
        assert ci.center == 0.5

    def test_arithmetic_example(self):
        # half width = z_{alpha/2} * sqrt(F_mn(1-F_mn)) * sqrt(ssq)
        # with F_mn = 0.5, ssq = 1e-4: 1.959964 * 0.5 * 0.01
        rng = stream(35)
        n = 40
        x = np.concatenate([np.zeros(20), np.ones(20)])
        w = draw_weights(n, n, rng)
        ci = ci_edf(x, w, 0.5, alpha=0.05)
        p = edf_point(x, w, 0.5)
        ws = weight_stats(w)
        want = critical_z(0.025) * math.sqrt(p.s2_mn) * math.sqrt(ws.sum_sq_dev)
        assert ci.half_width == pytest.approx(want, rel=1e-12)
        assert ci.center == pytest.approx(p.f_mn, rel=1e-12)

    def test_equals_route_through_edf_point(self):
        from randpivot.edf import ci_edf_from_stats
        rng = stream(37)
        for n, m in [(10, 10), (25, 7), (40, 90), (200, 200)]:
            for _ in range(10):
                x = rng.normal(size=n)
                w = draw_weights(n, m, rng)
                at = float(rng.normal(scale=0.5))
                try:
                    ci = ci_edf(x, w, at, 0.1)
                except (DegenerateWeights, ZeroScale):
                    continue
                old = ci_edf_from_stats(edf_point(x, w, at).f_mn, weight_stats(w), at, 0.1,
                                        n=n, m=m)
                assert ci == old

    @settings(max_examples=200, deadline=None)
    @given(edf_inputs())
    def test_clamp_invariants(self, case):
        x, w, at, alpha, sided = case
        try:
            ci = ci_edf(x, w, at, alpha, sided)
        except (DegenerateWeights, ZeroScale):
            return
        p, ws = edf_point(x, w, at), weight_stats(w)
        z = critical_z(alpha / 2.0 if sided == "two" else alpha)
        half = z * math.sqrt(p.s2_mn) * math.sqrt(ws.sum_sq_dev)
        raw = _raw_interval("edf_value", alpha, p.f_mn, half, sided,
                            {"n": w.n, "m": w.m, "pivot": "hathat1", "x": at})
        _check_clamped(ci, raw)

    def test_zero_scale_at_extremes(self):
        w = _w([2, 0])
        with pytest.raises(ZeroScale):
            ci_edf([1.0, 2.0], w, -5.0, 0.05)
        with pytest.raises(ZeroScale):
            ci_edf([1.0, 2.0], w, 5.0, 0.05)

    def test_clamping_records_raw_endpoints(self):
        rng = stream(36)
        x = rng.normal(size=10)
        w = draw_weights(10, 3, rng)  # small m: wide interval, will clamp
        q = float(np.sort(x)[0])  # f_mn near 0 or small
        try:
            ci = ci_edf(x, w, q, 0.30)
        except ZeroScale:
            pytest.skip("degenerate draw for this seed")
        assert 0.0 <= ci.lower <= ci.upper <= 1.0
        if ci.meta.get("clamped"):
            assert ci.meta["raw_lower"] < 0.0 or ci.meta["raw_upper"] > 1.0


class TestCiDf:
    def test_hand_case_zero_scale(self):
        w = _w([2, 0])
        with pytest.raises(ZeroScale):
            ci_df([1.0, 2.0], w, 1.5, 0.05)

    @settings(max_examples=200, deadline=None)
    @given(edf_inputs())
    def test_equals_route_through_edf_point(self, case):
        # center f_hat, half width z * sqrt(s2_mn) * sqrt(ssq) / sum|d|,
        # then clamped into [0, 1]
        x, w, at, alpha, sided = case
        ws = weight_stats(w)
        if ws.degenerate:
            with pytest.raises(DegenerateWeights):
                ci_df(x, w, at, alpha, sided)
            return
        p = edf_point(x, w, at)
        if p.s2_mn == 0.0:
            with pytest.raises(ZeroScale):
                ci_df(x, w, at, alpha, sided)
            return
        z = critical_z(alpha / 2.0 if sided == "two" else alpha)
        half = z * math.sqrt(p.s2_mn) * math.sqrt(ws.sum_sq_dev) / ws.sum_abs_dev
        raw = _raw_interval("df_value", alpha, p.f_hat, half, sided,
                            {"n": w.n, "m": w.m, "pivot": "hathat2", "x": at})
        _check_clamped(ci_df(x, w, at, alpha, sided), raw)

    def test_alpha_near_one_collapses_to_f_hat(self):
        rng = stream(37)
        x = rng.uniform(size=50)
        w = draw_weights(50, 50, rng)
        ci = ci_df(x, w, 0.5, alpha=1.0 - 1e-12)
        p = edf_point(x, w, 0.5)
        assert ci.half_width == pytest.approx(0.0, abs=1e-9)
        assert ci.center == pytest.approx(p.f_hat, rel=1e-12)

    def test_mc_coverage_uniform(self):
        # Uniform(0,1), n = m = 200, x = 0.5: coverage of F(0.5) = 0.5
        hits = 0
        reps = 400
        for r in range(reps):
            rng = stream(38, r)
            x = rng.uniform(size=200)
            w = draw_weights(200, 200, rng)
            ci = ci_df(x, w, 0.5, 0.05)
            hits += ci.contains(0.5)
        assert 0.91 <= hits / reps <= 0.98


_AT_POINT = {
    "edf_point": lambda x, w, at: edf_point(x, w, at),
    **{f"edf_pivot.{s}": (lambda x, w, at, s=s: edf_pivot(s, x, w, at, f_x=0.5))
       for s in ("hat1", "hat2", "hathat1", "hathat2")},
    "ci_edf": lambda x, w, at: ci_edf(x, w, at, 0.05),
    "ci_df": lambda x, w, at: ci_df(x, w, at, 0.05),
}


class TestEvaluationPoint:
    """NaN meets no indicator 1(x_i <= x), so it is refused by name at every
    entry point; +-inf are points, where F_n is 1 or 0."""

    @pytest.mark.parametrize("call", _AT_POINT)
    def test_nan_is_refused(self, call):
        with pytest.raises(ValueError, match=r"^x must not be NaN, got nan$"):
            _AT_POINT[call]([1.0, 2.0, 4.0], _w([1, 2, 0]), math.nan)

    @pytest.mark.parametrize("at, f", [(math.inf, 1.0), (-math.inf, 0.0)])
    def test_infinities_keep_their_answers(self, at, f):
        x, w = [1.0, 2.0, 4.0], _w([1, 2, 0])
        p = edf_point(x, w, at)
        assert (p.x, p.f_n, p.f_mn, p.f_hat) == (at, f, f, f)
        for call in set(_AT_POINT) - {"edf_point"}:
            with pytest.raises(ZeroScale, match=rf"scale is zero at x={at}$"):
                _AT_POINT[call](x, w, at)


class TestDkw:
    def test_value_at_1e6(self):
        assert dkw_bound(10**6, 0.002) == pytest.approx(2.0 * math.exp(-8.0), rel=1e-15)
        assert dkw_bound(10**6, 0.002) == pytest.approx(6.709e-4, abs=5e-7)

    def test_cap(self):
        assert dkw_bound(10, 1e-9) == 1.0

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.1])
    def test_eps_must_be_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            dkw_bound(100, eps)

    def test_matches_formula_generally(self):
        for eps in (1e-4, 1e-3, 0.002, 0.01, 0.1):
            want = min(1.0, 2.0 * math.exp(-2.0 * eps * eps * 10**6))
            assert dkw_bound(10**6, eps) == pytest.approx(want, rel=1e-15)

    def test_strictly_decreasing_before_cap(self):
        vals_n = [dkw_bound(n, 0.01) for n in (10**4, 10**5, 10**6)]
        assert vals_n[0] > vals_n[1] > vals_n[2]
        vals_e = [dkw_bound(10**5, e) for e in (0.004, 0.008, 0.016)]
        assert vals_e[0] > vals_e[1] > vals_e[2]
