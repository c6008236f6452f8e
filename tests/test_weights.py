"""Tests for multinomial weights, their functionals, and the exact oracles."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpivot import (DegenerateWeights, WeightVector, draw_weights,
                       enumerate_weight_vectors, exact_expectation_abs_dev,
                       exact_weight_moment, stream, weight_stats)
from randpivot.weights import WeightStats, stats_from_nonzero


def elementwise_stats(counts_nz, n, m):
    """Reference: one math.fsum over all n dense terms, zero counts included."""
    counts = np.zeros(n, dtype=np.int64)
    counts[:len(counts_nz)] = counts_nz  # fsum does not depend on the order
    dev = counts / m - 1.0 / n
    abs_dev = np.abs(dev)
    sq = dev * dev
    ssq = math.fsum(sq.tolist())
    sabs = math.fsum(abs_dev.tolist())
    scub = math.fsum((abs_dev * sq).tolist())
    return WeightStats(ssq, sabs, scub, float(sq.max()) / ssq if ssq > 0.0 else None)


class TestWeightVector:
    def test_single_category_absorbs_all_mass(self):
        w = draw_weights(1, 5, stream(0))
        assert w.counts.tolist() == [5]

    def test_sum_and_length_invariants(self):
        w = draw_weights(4, 8, stream(123))
        assert len(w.counts) == 4
        assert int(w.counts.sum()) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightVector(counts=np.array([1, 2]), m=4, n=2)  # sum != m
        with pytest.raises(ValueError):
            WeightVector(counts=np.array([3, -1]), m=2, n=2)
        with pytest.raises(ValueError):
            WeightVector(counts=np.array([1, 1]), m=2, n=3)  # wrong length

    def test_sampling_matches_exact_pmf_n2_m2(self):
        # P(2,0) = 1/4, P(1,1) = 1/2, P(0,2) = 1/4; 4 sigma band on 1e6 draws
        reps = 10**6
        rng = stream(42)
        # one draw = 2 uniform indices; batch the stream into pairs
        idx = rng.integers(0, 2, size=(reps, 2))
        first_counts = (idx == 0).sum(axis=1)
        for k, p in [(2, 0.25), (1, 0.5), (0, 0.25)]:
            freq = (first_counts == k).mean()
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(freq - p) < 4 * se

    def test_sampling_matches_enumeration_n3_m3(self):
        reps = 10**6
        rng = stream(7)
        idx = rng.integers(0, 3, size=(reps, 3))
        atoms = {}
        for counts, prob in enumerate_weight_vectors(3, 3):
            atoms[counts] = float(prob)
        observed = {}
        keys = (idx == 0).sum(axis=1) * 16 + (idx == 1).sum(axis=1) * 4 + (idx == 2).sum(axis=1)
        uniq, cnt = np.unique(keys, return_counts=True)
        for key, c in zip(uniq, cnt):
            counts = (int(key) // 16, (int(key) % 16) // 4, int(key) % 4)
            observed[counts] = c / reps
        assert sum(atoms.values()) == pytest.approx(1.0, abs=1e-15)
        for counts, p in atoms.items():
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(observed.get(counts, 0.0) - p) < 4 * se

    def test_determinism(self):
        a = draw_weights(10, 20, stream(5, 1)).counts
        b = draw_weights(10, 20, stream(5, 1)).counts
        assert (a == b).all()


class TestWeightStats:
    def test_hand_case_n2_m2(self):
        w = WeightVector(counts=np.array([2, 0]), m=2, n=2)
        ws = weight_stats(w)
        assert ws.sum_sq_dev == pytest.approx(0.5, abs=1e-15)
        assert ws.sum_abs_dev == pytest.approx(1.0, abs=1e-15)
        assert ws.sum_abs_cubed == pytest.approx(0.25, abs=1e-15)
        assert ws.max_ratio == pytest.approx(0.5, abs=1e-15)

    def test_equal_weights_degenerate(self):
        w = WeightVector(counts=np.array([2, 2, 2]), m=6, n=3)
        ws = weight_stats(w)
        assert ws.sum_sq_dev == 0.0
        assert ws.sum_abs_dev == 0.0
        assert ws.degenerate
        with pytest.raises(DegenerateWeights):
            ws.max_ratio

    def test_zero_iff_equal_weights(self):
        rng = stream(99)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 12))
            w = draw_weights(n, m, rng)
            ws = weight_stats(w)
            equal = bool((w.counts * n == m).all())
            assert (ws.sum_sq_dev == 0.0) == equal

    def test_functional_inequalities(self):
        rng = stream(1234)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, 60))
            ws = weight_stats(draw_weights(n, m, rng))
            if ws.degenerate:
                continue
            assert ws.max_ratio >= 1.0 / n - 1e-12
            assert ws.max_ratio <= 1.0 + 1e-12
            # sum |d|^3 <= sum |d| * max d^2
            assert ws.sum_abs_cubed <= ws.sum_abs_dev * ws.max_ratio * ws.sum_sq_dev + 1e-12

    def test_sparse_kernel_matches_dense_extraction(self):
        rng = stream(77)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(1, 50))
            w = draw_weights(n, m, rng)
            _, counts_nz = w.nonzero()
            a = weight_stats(w)
            b = stats_from_nonzero(counts_nz, n, m)
            assert a == b

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 1500), st.integers(0, 2**32 - 1))
    def test_per_count_sums_equal_elementwise_fsum(self, n, m, seed):
        # covers m < n, m = n and m > n
        w = draw_weights(n, m, stream(seed))
        _, counts_nz = w.nonzero()
        assert stats_from_nonzero(counts_nz, n, m) == elementwise_stats(counts_nz, n, m)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 70), min_size=1, max_size=300), st.integers(0, 50))
    def test_arbitrary_multiplicities_equal_elementwise_fsum(self, counts, extra):
        # extra = 0 is k = n, no zero categories
        n, m = len(counts) + extra, sum(counts)
        assert stats_from_nonzero(np.array(counts), n, m) == elementwise_stats(counts, n, m)

    @pytest.mark.parametrize("counts,n,m", [
        ([7], 1, 7),            # one category, the whole mass
        ([9], 5, 9),            # one nonzero category of five
        ([1] * 12, 12, 12),     # k = n, all equal: degenerate
        ([2, 1, 1, 3], 4, 7),   # k = n, m > n
        ([1, 1, 2], 10, 4),     # m < n
    ])
    def test_edge_cases_equal_elementwise_fsum(self, counts, n, m):
        assert stats_from_nonzero(np.array(counts), n, m) == elementwise_stats(counts, n, m)

    def test_many_categories_equal_elementwise_fsum(self):
        n, m = 10**6, 300_000
        _, counts_nz = draw_weights(n, m, stream(606)).nonzero()
        assert counts_nz.size >= 10**5
        assert stats_from_nonzero(counts_nz, n, m) == elementwise_stats(counts_nz, n, m)

    def test_max_ratio_trend_toward_zero(self):
        # 99th percentile of max d^2 / sum d^2 shrinks as n grows (m = n)
        def pct99(n, draws=400, seed=11):
            vals = []
            rng = stream(seed, n)
            for _ in range(draws):
                ws = weight_stats(draw_weights(n, n, rng))
                vals.append(ws.max_ratio)
            return float(np.percentile(vals, 99))

        assert pct99(10**4) < pct99(10**2)


class TestEnumerationOracles:
    def test_mean_sum_sq_dev_closed_form(self):
        # E sum (w_i/m - 1/n)^2 == (1 - 1/n)/m, exactly, for all n<=5, m<=6
        for n in range(1, 6):
            for m in range(1, 7):
                total = Fraction(0)
                for counts, prob in enumerate_weight_vectors(n, m):
                    ssq = sum((Fraction(c, m) - Fraction(1, n)) ** 2 for c in counts)
                    total += prob * ssq
                assert total == (1 - Fraction(1, n)) / m

    def test_mean_sum_sq_dev_example(self):
        # n=5, m=4 -> 0.2
        total = Fraction(0)
        for counts, prob in enumerate_weight_vectors(5, 4):
            total += prob * sum((Fraction(c, 4) - Fraction(1, 5)) ** 2 for c in counts)
        assert float(total) == pytest.approx(0.2, abs=1e-15)

    def test_mean_abs_dev_closed_form(self):
        # E sum |w_i/n - 1/n| == 2(1-1/n)^n for m = n, n <= 6
        for n in range(1, 7):
            total = Fraction(0)
            for counts, prob in enumerate_weight_vectors(n, n):
                total += prob * sum(abs(Fraction(c, n) - Fraction(1, n)) for c in counts)
            assert total == 2 * (1 - Fraction(1, n)) ** n
            assert float(total) == pytest.approx(exact_expectation_abs_dev(n), abs=1e-15)

    def test_probabilities_sum_to_one(self):
        for n, m in [(2, 5), (4, 3), (5, 6)]:
            assert sum(p for _, p in enumerate_weight_vectors(n, m)) == 1


class TestExactMoments:
    def test_first_central_moment_is_zero(self):
        assert exact_weight_moment(3, 6, 1) == pytest.approx(0.0, abs=1e-15)

    def test_second_central_moment_is_binomial_variance(self):
        assert exact_weight_moment(3, 6, 2) == pytest.approx(6 * (1 / 3) * (2 / 3), abs=1e-14)

    def test_sixth_moment_against_enumeration(self):
        # independent oracle: E(w1 - m/n)^6 by full multinomial enumeration
        for n, m in [(2, 2), (3, 3), (4, 5)]:
            total = Fraction(0)
            for counts, prob in enumerate_weight_vectors(n, m):
                total += prob * (Fraction(counts[0]) - Fraction(m, n)) ** 6
            assert exact_weight_moment(n, m, 6) == pytest.approx(float(total), rel=1e-13)

    def test_sixth_moment_polynomial_factor_is_upper_bound(self):
        # the bound's polynomial factor 15 m^3/n^3 + 25 m^2/n^2 + m/n
        # overstates the exact sixth central moment at every point checked
        for n in (2, 3, 5, 10, 20):
            for m in (2, 5, 10, 20):
                expr = 15 * m**3 / n**3 + 25 * m**2 / n**2 + m / n
                assert exact_weight_moment(n, m, 6) <= expr

    def test_logspace_path_matches_rational_path(self):
        # m=60 runs the rational path; compare against the log-space formula
        # by evaluating just above and below the switch at equal (n, k)
        exact_60 = exact_weight_moment(7, 60, 4)
        # brute float oracle
        from math import comb
        p = 1 / 7
        brute = sum(comb(60, j) * p**j * (1 - p) ** (60 - j) * (j - 60 * p) ** 4
                    for j in range(61))
        assert exact_60 == pytest.approx(brute, rel=1e-12)
        exact_61 = exact_weight_moment(7, 61, 4)
        brute61 = sum(comb(61, j) * p**j * (1 - p) ** (61 - j) * (j - 61 * p) ** 4
                      for j in range(62))
        assert exact_61 == pytest.approx(brute61, rel=1e-11)

    def test_overflow_cap(self):
        with pytest.raises(OverflowError):
            exact_weight_moment(10, 10_001, 2)


class TestAbsDevClosedForm:
    def test_n1_is_zero(self):
        assert exact_expectation_abs_dev(1) == 0.0

    def test_n2(self):
        assert exact_expectation_abs_dev(2) == pytest.approx(0.5, abs=1e-15)

    def test_large_n_limit(self):
        assert exact_expectation_abs_dev(10**7) == pytest.approx(2 / math.e, rel=1e-6)
