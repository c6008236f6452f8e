"""Tests for sample statistics, randomized statistics, and the four pivots."""
import contextlib
import math
import os
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randpivot.pivots as pivots
from randpivot import _pool
from randpivot import (DegenerateWeights, MissingMu, NonFiniteValue, PivotKind,
                       TooFewObservations, WeightVector, ZeroScale, ci_df, ci_edf, ci_mu,
                       draw_weights, edf_pivot, edf_point, enumerate_weight_vectors, pivot,
                       randomized_stats, sample_stats, stream, weight_stats)
from randpivot.pivots import _EXACT_CHUNK, _EXACT_MIN_TERMS, _exact_sum


def _w(counts, m=None):
    counts = np.asarray(counts)
    m = int(counts.sum()) if m is None else m
    return WeightVector(counts=counts, m=m, n=len(counts))


class TestSampleStats:
    def test_two_point(self):
        s = sample_stats([1.0, -1.0])
        assert s.mean == 0.0
        assert s.var_biased == 1.0

    def test_divisor_is_n(self):
        s = sample_stats([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5, abs=1e-15)
        assert s.var_biased == pytest.approx(1.25, abs=1e-15)  # NOT 5/3

    def test_constant_sample_flags_zero_variance(self):
        s = sample_stats([3.0, 3.0, 3.0])
        assert s.mean == 3.0
        assert s.var_biased == 0.0
        assert s.zero_variance

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            sample_stats([1.0])


class TestRandomizedStats:
    def test_hand_case(self):
        r = randomized_stats([1.0, -1.0], _w([2, 0]))
        assert r.rmean == 1.0
        assert r.rvar == 0.0
        assert r.ratio_mean == pytest.approx(0.0, abs=1e-15)

    def test_equal_weights_collapse_to_sample_stats(self):
        x = [0.5, 1.5, -2.0, 4.0]
        s = sample_stats(x)
        r = randomized_stats(x, _w([2, 2, 2, 2]))
        assert r.rmean == pytest.approx(s.mean, abs=1e-15)
        assert r.rvar == pytest.approx(s.var_biased, abs=1e-15)
        with pytest.raises(DegenerateWeights):
            r.ratio_mean

    def test_rmean_is_convex_combination_of_selected_values(self):
        rng = stream(3)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            x = rng.normal(size=n)
            w = draw_weights(n, int(rng.integers(1, 20)), rng)
            r = randomized_stats(x, w)
            sel = x[w.counts > 0]
            assert sel.min() - 1e-12 <= r.rmean <= sel.max() + 1e-12
            assert r.rvar >= -1e-15

    def test_ratio_mean_within_data_range(self):
        rng = stream(4)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            x = rng.normal(size=n)
            w = draw_weights(n, int(rng.integers(1, 20)), rng)
            r = randomized_stats(x, w)
            assert x.min() - 1e-12 <= r.ratio_mean <= x.max() + 1e-12

    def test_permutation_invariance(self):
        rng = stream(6)
        x = rng.normal(size=10)
        w = draw_weights(10, 14, rng)
        perm = rng.permutation(10)
        a = randomized_stats(x, w)
        b = randomized_stats(x[perm], _w(w.counts[perm], m=14))
        assert b.rmean == pytest.approx(a.rmean, rel=1e-12)
        assert b.rvar == pytest.approx(a.rvar, rel=1e-12)
        assert b.ratio_mean == pytest.approx(a.ratio_mean, rel=1e-12)

    @pytest.mark.parametrize("values, counts", [
        ([1.0, 2.0, 3.0], [3]),  # counts that would broadcast
        ([1.0], [1, 2]),
    ])
    def test_values_and_counts_of_different_lengths(self, values, counts):
        with pytest.raises(ValueError, match=rf"values length {len(values)} "
                                             rf"!= counts length {len(counts)}"):
            pivots.randomized_stats_from_nonzero(values, counts, 3)

    def test_enumeration_mean_of_rmean_equals_sample_mean(self):
        # E_w X_bar_{m,n} == X_bar_n at fixed data, by exact enumeration
        x = np.array([0.0, 3.0, 6.0])
        total = Fraction(0)
        for counts, prob in enumerate_weight_vectors(3, 3):
            rmean = randomized_stats(x, _w(list(counts))).rmean
            total += prob * Fraction(rmean)
        assert float(total) == pytest.approx(3.0, abs=1e-12)


class TestRatioEstimate:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 80), st.integers(0, 2**32 - 1))
    @example(9, 2, 0)  # rounding the 7 zero counts' sum apart changes sum |d_i| here
    def test_sum_abs_dev_is_weight_stats(self, n, m, seed):
        w = draw_weights(n, m, stream(seed))
        abs_dev = np.abs(w.counts / w.m - 1.0 / w.n)
        sums = {}

        def recording_sum(a):
            sums[np.asarray(a, dtype=np.float64).tobytes()] = total = _exact_sum(a)
            return total

        with mock.patch.object(pivots, "_exact_sum", recording_sum):
            pivots._ratio_estimate(np.arange(n, dtype=np.float64), w)
        assert sums[abs_dev.tobytes()] == weight_stats(w).sum_abs_dev  # bitwise


_W4 = WeightVector(counts=np.array([2, 0, 1, 1]), m=4, n=4)
_ENTRY_POINTS = {
    "sample_stats": sample_stats,
    "randomized_stats": lambda x: randomized_stats(x, _W4),
    "pivot": lambda x: pivot(PivotKind.G1, x, _W4, mu=0.0),
    "ci_mu": lambda x: ci_mu(x, _W4, 0.05),
    "edf_point": lambda x: edf_point(x, _W4, 3.0),
    "edf_pivot": lambda x: edf_pivot("hat2", x, _W4, 3.0, f_x=0.5),
    "ci_edf": lambda x: ci_edf(x, _W4, 3.0, 0.05),
    "ci_df": lambda x: ci_df(x, _W4, 3.0, 0.05),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sample_data_is_checked(self, entry, bad):
        with pytest.raises(NonFiniteValue) as err:
            _ENTRY_POINTS[entry]([1.0, bad, 4.0, 7.0])
        assert err.value.row == 1

    @pytest.mark.parametrize("n", [1, 30, pivots._FINITE_CHUNK, pivots._FINITE_CHUNK + 1])
    def test_first_bad_value_is_named(self, n):
        for at in sorted({0, n // 2, n - 1}):
            values = np.arange(n, dtype=np.float64).reshape(-1, 1)
            values[-1] = math.inf  # a later bad value is not the one named
            values[at] = math.nan
            with pytest.raises(NonFiniteValue) as err:
                pivots._check_finite(values)
            assert (err.value.row, err.value.content) == (at, "nan")
            with pytest.raises(NonFiniteValue) as err:
                pivots._check_finite(values, np.arange(n) + 100)
            assert err.value.row == at + 100
        pivots._check_finite(np.arange(n, dtype=np.float64))

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_pivot_mu_is_finite(self, mu):
        with pytest.raises(ValueError, match="mu must be finite"):
            pivot(PivotKind.G1, [1.0, 2.0, 4.0, 7.0], _W4, mu=mu)

    @pytest.mark.parametrize("f_x", [math.nan, 5.0, -0.25, math.inf])
    def test_edf_pivot_f_x_is_a_probability(self, f_x):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            edf_pivot("hat2", [1.0, 2.0, 4.0, 7.0], _W4, 3.0, f_x=f_x)


class TestPivotValues:
    def test_t1_hand_case(self):
        val = pivot(PivotKind.T1, [1.0, -1.0], _w([2, 0]))
        assert val == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_g1_hand_case(self):
        val = pivot(PivotKind.G1, [1.0, -1.0], _w([2, 0]), mu=0.0)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_missing_mu(self):
        with pytest.raises(MissingMu):
            pivot(PivotKind.G1, [1.0, -1.0], _w([2, 0]))

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWeights):
            pivot(PivotKind.T1, [1.0, -1.0], _w([1, 1]))

    def test_zero_scale_t1(self):
        with pytest.raises(ZeroScale):
            pivot(PivotKind.T1, [2.0, 2.0], _w([2, 0]))

    def test_zero_scale_t2_subsample_constant(self):
        # sample is not constant but the selected sub-sample is
        with pytest.raises(ZeroScale):
            pivot(PivotKind.T2, [1.0, 5.0, 5.0], _w([0, 2, 1]))
        # T1 on the same pair is fine (sample s.d. > 0)
        pivot(PivotKind.T1, [1.0, 5.0, 5.0], _w([0, 2, 1]))


@st.composite
def _wide_sample(draw):
    """A finite sample with magnitudes up to 1e300, and weight counts that
    leave some points at zero or are all equal (degenerate)."""
    n = draw(st.integers(2, 30))
    value = st.one_of(st.floats(-1e300, 1e300),
                      st.sampled_from([1e300, -1e300, 1e200, -1e200, 1.5, 0.0, -2.0]))
    x = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    if draw(st.booleans()):
        counts = [counts[0] or 1] * n
    counts[0] += sum(counts) == 0
    return x, _w(counts), draw(value), draw(st.sampled_from(x.tolist()) | value)


def _has_nan(value) -> bool:
    """A NaN anywhere in a float, a tuple, a dict or a result object's fields."""
    if isinstance(value, float):
        return math.isnan(value)
    if hasattr(value, "__dict__"):
        value = vars(value)
    if isinstance(value, dict):
        value = tuple(value.values())
    return isinstance(value, tuple) and any(map(_has_nan, value))


class TestWideSamples:
    """S_mn^2 has one implementation, on the nonzero counts, and no
    single-sample call turns a finite sample into a NaN."""

    @settings(max_examples=200, deadline=None)
    @given(case=_wide_sample(), f_x=st.floats(0.0, 1.0))
    @example(case=(np.array([1e200, 1.0, 2.0, 3.0, 4.0]), _w([0, 1, 2, 1, 1]), 0.0, 2.0), f_x=0.5)
    # fsum's partial sums of the squares pass float64 before the infinite one
    @example(case=(np.array([0.0, 0.0, 2.8442255724327534e154]), _w([0, 1, 2]), 0.0, 0.0),
             f_x=0.5)
    def test_subsample_scale_and_no_nan(self, case, f_x):
        x, w, mu, at = case
        rstats = randomized_stats(x, w)
        exact_pivot, scales = pivots._exact_pivot, []

        def recording_pivot(w, data, center, scale2, zero_scale):
            scales.append(scale2)
            return exact_pivot(w, data, center, scale2, zero_scale)

        calls = [lambda: sample_stats(x), lambda: rstats,
                 lambda: pivots.randomized_stats_from_nonzero(x[w.nonzero()[0]],
                                                              w.nonzero()[1], w.m)]
        calls += [lambda k=k: pivot(k, x, w, mu=mu) for k in PivotKind]
        calls += [lambda v=v, s=s: ci_mu(x, w, 0.05, variant=v, sided=s)
                  for v in ("g1", "g2") for s in ("two", "upper", "lower")]
        calls += [lambda s=s: edf_pivot(s, x, w, at, f_x=f_x)
                  for s in ("hat1", "hat2", "hathat1", "hathat2")]
        calls += [lambda f=f: f(x, w, at, 0.1) for f in (ci_edf, ci_df)]
        with mock.patch.object(pivots, "_exact_pivot", recording_pivot):
            for kind in (PivotKind.T2, PivotKind.G2):
                scales.clear()
                with contextlib.suppress(DegenerateWeights, ZeroScale):
                    pivot(kind, x, w, mu=mu)
                assert np.float64(scales[0]).tobytes() == np.float64(rstats.rvar).tobytes()
        for call in calls:
            try:
                result = call()
            except (DegenerateWeights, ZeroScale):
                continue
            assert not _has_nan(result), result


class TestPivotInvariances:
    def _random_cases(self, seed, count=60):
        rng = stream(seed)
        for _ in range(count):
            n = int(rng.integers(3, 15))
            x = rng.normal(size=n) * float(rng.uniform(0.5, 3.0))
            w = draw_weights(n, int(rng.integers(2, 25)), rng)
            yield x, w, rng

    def test_t_pivots_shift_invariant(self):
        for x, w, rng in self._random_cases(21):
            c = float(rng.uniform(-10, 10))
            for kind in (PivotKind.T1, PivotKind.T2):
                try:
                    base = pivot(kind, x, w)
                except (DegenerateWeights, ZeroScale):
                    continue
                assert pivot(kind, x + c, w) == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_g_pivots_joint_shift_invariant(self):
        for x, w, rng in self._random_cases(22):
            c = float(rng.uniform(-10, 10))
            for kind in (PivotKind.G1, PivotKind.G2):
                try:
                    base = pivot(kind, x, w, mu=0.25)
                except (DegenerateWeights, ZeroScale):
                    continue
                assert pivot(kind, x + c, w, mu=0.25 + c) == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_all_pivots_scale_invariant(self):
        for x, w, rng in self._random_cases(23):
            s = float(rng.uniform(0.1, 10.0))
            for kind in PivotKind:
                mu = 0.25 if kind.needs_mu else None
                smu = (0.25 * s) if kind.needs_mu else None
                try:
                    base = pivot(kind, x, w, mu=mu)
                except (DegenerateWeights, ZeroScale):
                    continue
                assert pivot(kind, s * x, w, mu=smu) == pytest.approx(base, rel=1e-9, abs=1e-9)


class TestDistributionalProperties:
    def test_g1_numerator_conditionally_unbiased(self):
        # fixed weights: E_X sum |d_i| (X_i - mu) = 0, MC with a 4 sigma band
        n, m, reps = 12, 12, 40000
        w = draw_weights(n, m, stream(55))
        dev = np.abs(w.counts / m - 1.0 / n)
        rng = stream(56)
        x = rng.normal(loc=0.7, scale=1.3, size=(reps, n))
        nums = (dev * (x - 0.7)).sum(axis=1)
        se = nums.std(ddof=1) / math.sqrt(reps)
        assert abs(nums.mean()) < 4 * se

    def test_consistency_spread_shrinks_like_sqrt_m(self):
        # fixed n = 20: the MC spread of rmean - mean and rvar - var shrinks
        # by ~sqrt(10^4/10^2) = 10 as m goes from 100 to 10^4
        n, draws = 20, 1500
        rng = stream(60)
        x = rng.normal(size=n)
        s = sample_stats(x)

        def spreads(m, seed):
            rr = stream(seed)
            dm, dv = [], []
            for _ in range(draws):
                r = randomized_stats(x, draw_weights(n, m, rr))
                dm.append(r.rmean - s.mean)
                dv.append(r.rvar - s.var_biased)
            return np.std(dm, ddof=1), np.std(dv, ddof=1)

        sm_small, sv_small = spreads(100, 61)
        sm_big, sv_big = spreads(10000, 62)
        assert 6.0 < sm_small / sm_big < 16.0
        assert 6.0 < sv_small / sv_big < 16.0


def summed(f, a):
    """f(a) as ("ok", hex value) or (exception type, message): bitwise,
    with the sign of zero, and with fsum's exceptions."""
    try:
        return "ok", f(a).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def rounded_sum(a):
    """math.fsum(a); where fsum raises OverflowError, its result from the
    non-finite terms alone, or else the exact sum of the terms as Fractions
    rounded once, +-inf past float64."""
    try:
        return math.fsum(a)
    except OverflowError:
        special = [x for x in a if not math.isfinite(x)]
        if special:
            return math.fsum(special)
        exact = sum(map(Fraction, a))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


SUM_SIZES = st.one_of(
    st.sampled_from([0, 1, _EXACT_MIN_TERMS - 1, _EXACT_MIN_TERMS, _EXACT_MIN_TERMS + 1,
                     _EXACT_CHUNK - 1, _EXACT_CHUNK, _EXACT_CHUNK + 1, 2 * _EXACT_CHUNK + 3]),
    st.integers(0, 4 * _EXACT_MIN_TERMS))


def summands(kind, size, rng):
    """size terms of one hard kind for an exact sum."""
    x = rng.standard_normal(size)
    if kind == "scales":  # magnitudes across 10^-5 .. 10^5
        return x * 10.0 ** rng.integers(-5, 6, size)
    if kind == "wide":  # every binade from the subnormals up to 2^1000
        return np.ldexp(x, rng.integers(-1074, 1000, size))
    if kind == "subnormal":
        return rng.integers(-(1 << 20), 1 << 20, size) * 5e-324
    if kind == "cancel":  # pairs that cancel, with a tiny residue
        half = x[: size // 2] * 1e12
        out = np.concatenate([half, -half, x[: size % 2] * 1e-12])
        return rng.permutation(out)
    if kind == "zeros":
        return rng.choice([0.0, -0.0], size)
    if kind == "huge":  # sums past the float range, or near it
        return rng.choice([1.0, -1.0], size) * 1.7e308 * rng.uniform(0.5, 1.0, size)
    return x


class TestExactSum:
    @pytest.fixture(autouse=True, scope="class",
                    params=["serial", "small-chunks", "flush-every-chunk"])
    def summing(self, request):
        """Every case runs as it is; with chunks of 2^10 terms, so that short
        rows span several chunks; and so, with the bucket sums moved to
        integers after every chunk, so that each case crosses flushes."""
        if request.param == "serial":
            yield request.param
            return
        flush = 1 if request.param == "flush-every-chunk" else pivots._EXACT_FLUSH
        with mock.patch.object(pivots, "_EXACT_CHUNK", 1 << 10), \
                mock.patch.object(pivots, "_EXACT_FLUSH", flush):
            yield request.param

    def test_no_thread_started(self):
        # not even where a job of two or more items would be cut in halves
        a = np.random.default_rng(11).standard_normal(4 * _EXACT_MIN_TERMS)
        real, names = threading.Thread, []
        count = threading.active_count()
        with mock.patch.object(threading, "Thread",
                               lambda *args, **kwargs: names.append(kwargs.get("name")) or real(
                                   *args, **kwargs)), \
                mock.patch.object(_pool, "_SPLIT_ITEMS", 0), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
            assert summed(_exact_sum, a) == summed(rounded_sum, a)
        assert names == []
        assert threading.active_count() == count

    @pytest.mark.parametrize("specials", [
        [math.inf], [-math.inf], [math.nan], [math.inf, -math.inf],
        [2.0**998, -(2.0**1000), 2.0**1023, 3.5 * 2.0**1010],  # finite, summed as ints
        [2.0**1023, 2.0**1023],  # past float64
    ])
    def test_specials_in_the_last_chunk_only(self, specials):
        a = np.random.default_rng(12).standard_normal(4 * _EXACT_MIN_TERMS)  # 5 small chunks
        a[-len(specials) - 3:-3] = specials
        assert summed(_exact_sum, a) == summed(rounded_sum, a)
        assert summed(_exact_sum, a[::-1]) == summed(rounded_sum, a[::-1])  # first chunk only

    @settings(max_examples=300, deadline=None)
    @given(SUM_SIZES,
           st.sampled_from(["normal", "scales", "wide", "subnormal", "cancel", "zeros", "huge"]),
           st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.floats(), st.integers(0, 10**6)), max_size=4))
    def test_bitwise_fsum(self, size, kind, seed, specials):
        a = summands(kind, size, np.random.default_rng(seed))
        if a.size:  # splice in arbitrary floats: infinities, NaN, extremes
            a = a.copy()
            for value, at in specials:
                a[at % a.size] = value
        assert summed(_exact_sum, a) == summed(rounded_sum, a)

    def test_named_cases(self):
        n = 2 * _EXACT_MIN_TERMS
        cases = [
            np.full(n, -0.0),                                  # fsum's zero sign
            np.concatenate([np.full(n, -0.0), [0.0]]),         # mixed zero signs
            np.concatenate([[0.0], np.full(n, -0.0)]),
            np.concatenate([np.full(n, 1.5), np.full(n, -1.5)]),  # exact zero
            np.concatenate([np.full(n, -1.5), np.full(n, -0.0), np.full(n, 1.5)]),
            np.full(n, 1e308),                                 # intermediate overflow
            np.concatenate([[1e308, 1e308], np.full(n, -1e308)]),
            np.array([1e308, 1e308, -1e308]),                  # ... to a finite sum
            np.array([1e308, 1e308, np.inf]),                  # ... before an infinity
            np.concatenate([[np.inf, -np.inf], np.ones(n)]),   # ValueError
            np.concatenate([[np.nan], np.ones(n)]),
            np.concatenate([[np.inf], np.ones(n)]),
            np.full(n, 5e-324),
            np.concatenate([[2.0**-1074, 1.0, 2.0**53], np.full(n, 2.0**-60)]),  # ties
        ]
        for a in cases:
            assert summed(_exact_sum, a) == summed(rounded_sum, a)
        assert _exact_sum([1e308, 1e308, -1e308]) == 1e308
        assert _exact_sum(np.full(n, -1e308)) == -math.inf

    @pytest.mark.parametrize("e", [-1022, 0, 997, 1007])
    def test_full_buckets(self, e):
        # a chunk of equal terms with every mantissa bit set: the largest
        # load of one bucket, at the subnormal edge, at 1, at the largest
        # field summed in floats and at the largest field below 2^1008
        term = math.ldexp(2.0 - 2.0**-52, e)
        for sign in (1.0, -1.0):
            a = np.full(_EXACT_CHUNK, sign * term)
            assert summed(_exact_sum, a) == summed(rounded_sum, a)
            a[-1] = 0.0  # one chunk, then a lone term in the next
            a = np.append(a, sign * term)
            assert summed(_exact_sum, a) == summed(rounded_sum, a)
        # full chunks of alternate signs: each sign's bucket fills over two
        # chunks, past float64 at 2^1007, and the total is 1.0
        chunk = np.full(_EXACT_CHUNK, term)
        a = np.concatenate([chunk, -chunk, chunk, -chunk, [1.0]])
        assert summed(_exact_sum, a) == summed(rounded_sum, a) == ("ok", (1.0).hex())

    def test_huge_terms_cancel_beside_tiny_ones(self):
        # terms in 2^1008 .. 2^1023 that cancel to a finite total, in one
        # chunk with terms of 2^-1074 scale
        rng = np.random.default_rng(5)
        n = 3 * _EXACT_MIN_TERMS
        huge = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(1008, 1024, n))
        tiny = rng.integers(-50, 50, n) * 2.0**-1074
        a = rng.permutation(np.concatenate([huge, -huge, [1e308, 3.0], tiny]))
        assert summed(_exact_sum, a) == summed(rounded_sum, a)
        assert _exact_sum(a) == float(sum(map(Fraction, a.tolist())))
        b = rng.permutation(np.concatenate([huge, -huge[1:], tiny]))  # one huge term left
        assert summed(_exact_sum, b) == summed(rounded_sum, b)

    @pytest.mark.parametrize("flush", [1, 2])
    def test_bucket_sums_flushed_between_chunks(self, flush):
        # the float bucket sums are moved to integers every _EXACT_FLUSH
        # chunks (2^26 terms); a smaller flush shows the hand-over
        rng = np.random.default_rng(9)
        a = summands("wide", 3 * _EXACT_CHUNK + 5, rng)
        want = summed(rounded_sum, a)
        with mock.patch.object(pivots, "_EXACT_FLUSH", flush):
            assert summed(_exact_sum, a) == want
            assert summed(_exact_sum, np.concatenate([a, -a, [2.0**-1074]])) == (
                "ok", (2.0**-1074).hex())

    @pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan])
    def test_non_finite_only_in_the_last_chunk(self, special):
        a = np.random.default_rng(6).standard_normal(3 * _EXACT_CHUNK + 17)
        a[-5] = special
        assert summed(_exact_sum, a) == summed(rounded_sum, a)
        a[7] = -special  # inf - inf in fsum: its ValueError, whatever the chunk
        assert summed(_exact_sum, a) == summed(rounded_sum, a)

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_subnormal_normal_boundary(self, signs):
        # 2^-1022 +- 2^-1074: the largest subnormal and the two smallest
        # normals share the grid of 2^-1074 across their two exponent fields
        rng = np.random.default_rng(7)
        edge = np.array([2.0**-1022 - 2.0**-1074, 2.0**-1022, 2.0**-1022 + 2.0**-1074])
        a = rng.choice(edge, 2 * _EXACT_MIN_TERMS) * rng.choice(signs, 2 * _EXACT_MIN_TERMS)
        assert summed(_exact_sum, a) == summed(rounded_sum, a)

    def test_reweighted_moments_over_chunks_are_fraction_sums(self):
        # the sums of the terms over several chunks are exact, rounded once
        rng = np.random.default_rng(8)
        x = rng.lognormal(0.0, 1.0, 200_003)
        counts = rng.integers(1, 5, x.size)
        m = int(counts.sum())
        assert x.size > 3 * _EXACT_CHUNK
        rmean, rvar = pivots.randomized_stats_from_nonzero(x, counts, m)
        exact = sum(map(Fraction, (counts * x).tolist()))
        assert rmean == float(exact) / m
        exact = sum(map(Fraction, (counts * (x - rmean) ** 2).tolist()))
        assert rvar == float(exact) / m

    @pytest.mark.parametrize("a", [
        np.full(2 * _EXACT_MIN_TERMS, -0.0),
        np.full(2 * _EXACT_MIN_TERMS, 3.0) - 3.0,
        np.concatenate([np.full(_EXACT_MIN_TERMS, 1e-300), np.full(_EXACT_MIN_TERMS, -1e-300)]),
    ])
    def test_zero_sum_does_not_fall_back_to_fsum(self, a):
        want = summed(math.fsum, a)
        with mock.patch.object(math, "fsum", side_effect=AssertionError("walked")):
            assert summed(_exact_sum, a) == want
