"""Tests for critical values, the mean intervals, and sub-sample sizing."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpivot import (DegenerateWeights, DomainError, Fixed, LogLog,
                       PowerDelta, WeightVector, ZeroScale, ci_mu, ci_xbar,
                       critical_z, draw_weights, edf_pivot, parse_policy, pivot,
                       randomized_stats, stream, subsample_size, weight_stats)
from randpivot.edf import ci_df, ci_edf
from randpivot.pivots import RandomizedStats
from randpivot.weights import WeightStats


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _inverse_phi_bisect(p: float, tol: float = 1e-12) -> float:
    """Independent oracle: invert Phi by bisection on erfc."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCriticalZ:
    def test_upper_tail_95_cutoff(self):
        assert critical_z(0.05) == pytest.approx(1.644854, abs=5e-7)

    def test_median(self):
        assert critical_z(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_two_sided_value(self):
        assert critical_z(0.025) == pytest.approx(1.959964, abs=5e-7)

    def test_against_bisection_oracle(self):
        for alpha_half in (0.4, 0.25, 0.1, 0.05, 0.025, 0.01, 1e-3, 1e-6):
            want = _inverse_phi_bisect(1.0 - alpha_half)
            assert critical_z(alpha_half) == pytest.approx(want, abs=1e-9)

    def test_round_trip(self):
        for z in (0.5, 1.0, 1.644854, 2.5):
            assert critical_z(_phi(-z)) == pytest.approx(z, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            critical_z(0.0)
        with pytest.raises(ValueError):
            critical_z(1.0)


class TestCiMu:
    def test_hand_case(self):
        w = WeightVector(counts=np.array([2, 0]), m=2, n=2)
        ci = ci_mu([1.0, -1.0], w, alpha=0.10, variant="g1", sided="two")
        assert ci.center == pytest.approx(0.0, abs=1e-15)
        assert ci.half_width == pytest.approx(1.163087, abs=5e-6)
        assert ci.lower == pytest.approx(-1.163087, abs=5e-6)
        assert ci.upper == pytest.approx(1.163087, abs=5e-6)
        assert ci.level == pytest.approx(0.90)

    def test_alpha_near_one_collapses(self):
        w = WeightVector(counts=np.array([2, 0]), m=2, n=2)
        ci = ci_mu([1.0, -1.0], w, alpha=1.0 - 1e-12, variant="g1")
        assert ci.half_width == pytest.approx(0.0, abs=1e-9)

    def test_g2_variant_uses_subsample_scale(self):
        rng = stream(8)
        x = rng.normal(size=30)
        w = draw_weights(30, 30, rng)
        ci1 = ci_mu(x, w, 0.05, "g1")
        ci2 = ci_mu(x, w, 0.05, "g2")
        wstats = weight_stats(w)
        r = randomized_stats(x, w)
        s1 = math.sqrt(np.var(x))
        unit = math.sqrt(wstats.sum_sq_dev) / wstats.sum_abs_dev
        assert ci1.half_width == pytest.approx(critical_z(0.025) * s1 * unit, rel=1e-12)
        assert ci2.half_width == pytest.approx(critical_z(0.025) * r.rsd * unit, rel=1e-12)
        assert ci1.center == ci2.center == pytest.approx(r.ratio_mean, rel=1e-12)

    def test_one_sided_upper_matches_pivot_event(self):
        # mu in [center - z*unit, inf) iff G <= z; the lower interval
        # mirrors it (G >= -z) and the two-sided one needs |G| <= z_{alpha/2}.
        # Checked for G1 and G2 on all three sidednesses.
        from randpivot import PivotKind, pivot
        events = {"upper": lambda g, z: g <= z, "lower": lambda g, z: g >= -z,
                  "two": lambda g, z: abs(g) <= z}
        for kind in (PivotKind.G1, PivotKind.G2):
            for sided, event in events.items():
                rng = stream(9)
                z = critical_z(0.025 if sided == "two" else 0.05)
                for _ in range(200):
                    x = rng.normal(size=15)
                    w = draw_weights(15, 15, rng)
                    mu = float(rng.normal())
                    try:
                        g = pivot(kind, x, w, mu=mu)
                    except (DegenerateWeights, ZeroScale):
                        continue
                    ci = ci_mu(x, w, 0.05, kind.value, sided=sided)
                    assert (ci.upper == math.inf) == (sided == "upper")
                    assert (ci.lower == -math.inf) == (sided == "lower")
                    assert ci.contains(mu) == event(g, z), (kind, sided)

    def test_equals_route_through_randomized_stats(self):
        # center from randomized_stats(...).ratio_mean, scale from
        # sample_stats (g1) or randomized_stats(...).rsd (g2)
        from randpivot.intervals import _assemble
        from randpivot.pivots import sample_stats
        rng = stream(12)
        for n, m in [(5, 5), (15, 40), (30, 30), (100, 20)]:
            for _ in range(10):
                x = rng.lognormal(size=n)
                w = draw_weights(n, m, rng)
                ws = weight_stats(w)
                if ws.degenerate:
                    continue
                r = randomized_stats(x, w)
                for variant, scale in (("g1", sample_stats(x).sd), ("g2", r.rsd)):
                    if scale == 0.0:
                        with pytest.raises(ZeroScale):
                            ci_mu(x, w, 0.1, variant)
                        continue
                    half = critical_z(0.05) * scale * math.sqrt(ws.sum_sq_dev) / ws.sum_abs_dev
                    old = _assemble("population_mean", 0.1, r.ratio_mean, half, "two",
                                    {"n": n, "m": m, "pivot": variant})
                    assert ci_mu(x, w, 0.1, variant) == old

    def test_width_scales_linearly_with_data(self):
        rng = stream(10)
        x = rng.normal(size=20)
        w = draw_weights(20, 20, rng)
        base = ci_mu(x, w, 0.05)
        scaled = ci_mu(3.5 * x, w, 0.05)
        assert scaled.half_width == pytest.approx(3.5 * base.half_width, rel=1e-12)

    def test_degenerate_weights(self):
        w = WeightVector(counts=np.array([1, 1]), m=2, n=2)
        with pytest.raises(DegenerateWeights):
            ci_mu([1.0, -1.0], w, 0.05)

    def test_degenerate_weights_give_one_message(self):
        x, w = [1.0, -1.0, 3.0], WeightVector(counts=np.array([2, 2, 2]), m=6, n=3)
        messages = set()
        for refuse in (lambda: ci_mu(x, w, 0.05), lambda: pivot("g1", x, w, mu=0.0),
                       lambda: ci_edf(x, w, 0.5, 0.05), lambda: edf_pivot("hat1", x, w, 0.5)):
            with pytest.raises(DegenerateWeights) as err:
                refuse()
            messages.add(str(err.value))
        assert messages == {"all weights equal m/n; pivot denominators vanish"}

    def test_zero_scale(self):
        w = WeightVector(counts=np.array([2, 0]), m=2, n=2)
        with pytest.raises(ZeroScale):
            ci_mu([2.0, 2.0], w, 0.05)

    def test_width_invariant_under_pair_permutation(self):
        rng = stream(11)
        x = rng.normal(size=12)
        w = draw_weights(12, 18, rng)
        perm = rng.permutation(12)
        ci_a = ci_mu(x, w, 0.05)
        ci_b = ci_mu(x[perm], WeightVector(counts=w.counts[perm], m=18, n=12), 0.05)
        assert ci_a.half_width == pytest.approx(ci_b.half_width, rel=1e-12)
        assert ci_a.center == pytest.approx(ci_b.center, rel=1e-12)


class TestCiXbar:
    def test_arithmetic_example(self):
        rstats = RandomizedStats(rmean=1.0, rvar=4.0)
        wstats = WeightStats(1e-4, 0.02, 1e-6, 0.5)
        ci = ci_xbar(rstats, wstats, alpha=0.05, sided="two")
        assert ci.half_width == pytest.approx(0.039199, abs=5e-6)
        assert ci.center == 1.0

    def test_degenerate(self):
        rstats = RandomizedStats(rmean=1.0, rvar=4.0)
        with pytest.raises(DegenerateWeights):
            ci_xbar(rstats, WeightStats(0.0, 0.0, 0.0, None), 0.05)

    def test_zero_scale(self):
        rstats = RandomizedStats(rmean=1.0, rvar=0.0)
        with pytest.raises(ZeroScale):
            ci_xbar(rstats, WeightStats(1e-4, 0.02, 1e-6, 0.5), 0.05)

    def test_mc_coverage_of_sample_mean(self):
        # Normal data, n = 10^4, m = n^(3/4): the two-sided 95% interval
        # covers the realized sample mean ~95% of the time
        n = 10**4
        m = subsample_size(n, PowerDelta(0.25))
        hits = 0
        reps = 300
        for r in range(reps):
            rng = stream(1000, r)
            x = rng.normal(size=n)
            w = draw_weights(n, m, rng)
            ci = ci_xbar(randomized_stats(x, w), weight_stats(w), 0.05)
            hits += ci.contains(float(x.mean()))
        assert abs(hits / reps - 0.95) < 0.04


@st.composite
def interval_inputs(draw):
    """(data, weights, evaluation point, alpha) with alpha in (0, 1/2)."""
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, 60))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    x = draw(st.sampled_from([rng.normal, rng.exponential, rng.poisson]))(size=n) * 1.0
    w = draw_weights(n, m, rng)
    at = float(draw(st.sampled_from([rng.choice(x), rng.normal()])))
    alpha = draw(st.floats(1e-4, 0.4999))
    return x, w, at, alpha


def _mirror_routes(x, w, at):
    """Each interval entry point as a function of (alpha, sided)."""
    return {
        "ci_mu g1": lambda a, s: ci_mu(x, w, a, "g1", s),
        "ci_mu g2": lambda a, s: ci_mu(x, w, a, "g2", s),
        "ci_xbar": lambda a, s: ci_xbar(randomized_stats(x, w), weight_stats(w), a, s),
        "ci_edf": lambda a, s: ci_edf(x, w, at, a, s),
        "ci_df": lambda a, s: ci_df(x, w, at, a, s),
    }


class TestSidednessMirroring:
    @settings(max_examples=200, deadline=None)
    @given(interval_inputs())
    def test_one_sided_at_alpha_shares_an_endpoint_with_two_sided_at_2alpha(self, case):
        # z for "upper"/"lower" at alpha is z_{2 alpha / 2} of "two" at 2 alpha
        x, w, at, alpha = case
        for name, route in _mirror_routes(x, w, at).items():
            try:
                two = route(2.0 * alpha, "two")
            except (DegenerateWeights, ZeroScale):
                continue
            edf = name in ("ci_edf", "ci_df")
            upper, lower = route(alpha, "upper"), route(alpha, "lower")
            for one in (upper, lower):
                assert (one.center, one.half_width) == (two.center, two.half_width), name
            assert upper.lower == two.lower, name
            assert upper.upper == (1.0 if edf else math.inf), name
            assert lower.upper == two.upper, name
            assert lower.lower == (0.0 if edf else -math.inf), name


class TestSubsampleSize:
    def test_power_delta_quarter_at_1e6(self):
        assert subsample_size(10**6, PowerDelta(0.25)) == 31623

    def test_loglog_at_1e6(self):
        assert subsample_size(10**6, LogLog()) == 2626

    def test_power_delta_exact_small(self):
        assert subsample_size(16, PowerDelta(0.25)) == 8

    def test_fixed(self):
        assert subsample_size(100, Fixed(37)) == 37

    def test_loglog_domain_error(self):
        with pytest.raises(DomainError):
            subsample_size(2, LogLog())

    def test_clamping(self):
        assert subsample_size(3, Fixed(1000)) == 8  # n^2 - 1
        assert subsample_size(100, Fixed(1)) == 2   # lower clamp (Fixed(1) valid, clamped)

    def test_monotone_in_n(self):
        for policy in (PowerDelta(0.25), PowerDelta(0.1), LogLog()):
            last = 0
            for n in [16, 40, 100, 1000, 10**4, 10**5, 10**6, 10**7, 10**8]:
                m = subsample_size(n, policy)
                assert m >= last
                last = m

    def test_policy_parsing(self):
        assert parse_policy("power-delta:0.25") == PowerDelta(0.25)
        assert parse_policy("loglog") == LogLog()
        assert parse_policy("fixed:500") == Fixed(500)
        assert parse_policy("500") == Fixed(500)
        with pytest.raises(ValueError):
            parse_policy("nonsense")
        with pytest.raises(ValueError):
            parse_policy("power-delta:0.7")
