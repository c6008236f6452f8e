"""Tests for the Monte Carlo harness: sampling, coverage, proportions, KS."""
import contextlib
import functools
import json
import math
import operator
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randpivot.mc as mc
import randpivot.pivots as pivots
from randpivot import _pool
from randpivot import (BadParams, DegenerateWeights, DistributionSpec, PivotKind,
                       RandPivotError, TooFewObservations, WeightVector, ZeroScale, ci_mu,
                       coverage_study, critical_z, draw_weights, gen_sample,
                       kolmogorov_distance, parse_dist, pivot, proportion_study, stream,
                       student_t_cutoff)
from randpivot._normal import norm_cdf
from randpivot.edf import edf_pivot
from randpivot.weights import draw_indices
from test_pool import started_threads

NORMAL = DistributionSpec("normal", (0.0, 1.0))


@contextlib.contextmanager
def _in_workers(pool_elements=0):
    """Run the body with mc._POOL_ELEMENTS = pool_elements; yields the pools started.

    A study too small to repay a pool runs in-process at any thread count.
    At the default 0 every study of two or more items at threads > 1 runs
    in worker processes, as tests of thread independence need.
    """
    started = []
    init = ProcessPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        started.append(self)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_POOL_ELEMENTS", pool_elements)
        mp.setattr(ProcessPoolExecutor, "__init__", counting_init)
        yield started


@contextlib.contextmanager
def _split_forced():
    """Cut every in-process study of two or more units in halves, as if on
    two CPUs; yields the names of the threads _pool starts."""
    with started_threads() as names, pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pool, "_SPLIT_ITEMS", 0)
        mp.setattr(mc, "_SPLIT_WIDTH", 0)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield names


class TestDistributionSpec:
    def test_parse(self):
        d = parse_dist("normal:0,1")
        assert d.family == "normal" and d.params == (0.0, 1.0)
        assert parse_dist("poisson:1").true_mean == 1.0
        assert parse_dist("binomial:10,0.1").true_mean == pytest.approx(1.0)

    def test_true_means(self):
        assert DistributionSpec("beta", (5, 1)).true_mean == pytest.approx(5 / 6)
        assert DistributionSpec("exponential", (2,)).true_mean == pytest.approx(0.5)
        assert DistributionSpec("lognormal", (0, 1)).true_mean == pytest.approx(math.exp(0.5))
        assert DistributionSpec("lognormal_std", (0, 1)).true_mean == 0.0
        assert DistributionSpec("uniform", (1, 3)).true_mean == 2.0

    def test_bad_params(self):
        with pytest.raises(BadParams):
            DistributionSpec("normal", (0.0, -1.0))
        with pytest.raises(BadParams):
            DistributionSpec("binomial", (10, 1.5))
        with pytest.raises(BadParams):
            DistributionSpec("nosuch", (1.0,))
        with pytest.raises(BadParams):
            DistributionSpec("uniform", (3.0, 1.0))

    @pytest.mark.parametrize("text", ["lognormal_std:0,1e-300", "lognormal_std:-1e300,1"])
    def test_lognormal_std_needs_a_positive_sd(self, text):
        # its draws are divided by the s.d., which underflows to 0 here
        with pytest.raises(BadParams, match="bad parameters"):
            parse_dist(text)

    @pytest.mark.parametrize("text", ["normal:inf,1", "normal:nan,1", "normal:0,inf",
                                      "poisson:inf", "exponential:nan", "uniform:-inf,0",
                                      "binomial:10,nan", "beta:inf,2", "lognormal:0,inf"])
    def test_non_finite_params_rejected(self, text):
        with pytest.raises(BadParams, match="bad parameters"):
            parse_dist(text)

    @pytest.mark.parametrize("text", ["lognormal:800,1", "lognormal:0,40", "lognormal_std:0,40",
                                      "lognormal_std:0,26.7", "lognormal_std:709.2,1",
                                      "exponential:1e-320"])
    def test_params_with_an_infinite_mean_or_sd_rejected(self, text):
        # the mean (and lognormal_std's s.d.) would overflow or be inf
        with pytest.raises(BadParams, match="bad parameters"):
            parse_dist(text)

    def test_large_finite_moments_accepted(self):
        assert math.isfinite(parse_dist("lognormal:700,1").true_mean)
        assert parse_dist("lognormal_std:0,26").true_mean == 0.0
        assert parse_dist("uniform:-1.7e308,1.7e308").true_mean == 0.0
        assert parse_dist("uniform:1e308,1.7e308").true_mean == 1.35e308  # the sum overflows
        assert parse_dist("uniform:1,4").true_mean == 2.5


class TestGenSample:
    def test_exponential_mean_band(self):
        x = gen_sample(DistributionSpec("exponential", (1.0,)), 10**6, stream(1))
        assert abs(x.mean() - 1.0) < 4e-3

    def test_binomial_support(self):
        x = gen_sample(DistributionSpec("binomial", (10, 0.1)), 10**4, stream(2))
        assert x.min() >= 0 and x.max() <= 10
        assert (x == np.round(x)).all()

    def test_beta_moments(self):
        d = DistributionSpec("beta", (5.0, 1.0))
        x = gen_sample(d, 10**6, stream(3))
        assert abs(x.mean() - d.true_mean) < 4 * x.std() / 1000.0
        assert 0.0 <= x.min() and x.max() <= 1.0

    def test_lognormal_std_standardized(self):
        x = gen_sample(DistributionSpec("lognormal_std", (0.0, 1.0)), 10**6, stream(4))
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.02

    def test_draws_match_numpy_generators(self):
        # the sampler of each family is one numpy call on the stream
        direct = {
            "binomial:5,0.3": lambda g: g.binomial(5, 0.3, 9).astype(np.float64),
            "poisson:1.5": lambda g: g.poisson(1.5, 9).astype(np.float64),
            "lognormal:0.2,0.7": lambda g: g.lognormal(0.2, 0.7, 9),
            "exponential:2": lambda g: g.exponential(0.5, 9),
            "normal:1,3": lambda g: g.normal(1.0, 3.0, 9),
            "beta:2,5": lambda g: g.beta(2.0, 5.0, 9),
            "uniform:-1,4": lambda g: g.uniform(-1.0, 4.0, 9),
        }
        for text, draw in direct.items():
            got = gen_sample(parse_dist(text), 9, stream(12))
            assert got.tobytes() == draw(stream(12)).tobytes(), text
        mean = math.exp(0.2 + 0.5 * 0.7 ** 2)
        sd = mean * math.sqrt(math.expm1(0.7 ** 2))
        want = (stream(12).lognormal(0.2, 0.7, 9) - mean) / sd
        got = gen_sample(parse_dist("lognormal_std:0.2,0.7"), 9, stream(12))
        assert got.tobytes() == want.tobytes()

    def test_poisson_and_uniform_means(self):
        x = gen_sample(DistributionSpec("poisson", (1.0,)), 10**6, stream(5))
        assert abs(x.mean() - 1.0) < 4e-3
        u = gen_sample(DistributionSpec("uniform", (0.0, 1.0)), 10**6, stream(6))
        assert abs(u.mean() - 0.5) < 2e-3


class TestStudentCutoffs:
    def test_exact_t_cutoffs(self):
        assert student_t_cutoff(0.05, 19) == pytest.approx(1.729, abs=5e-4)
        assert student_t_cutoff(0.05, 24) == pytest.approx(1.711, abs=5e-4)
        assert student_t_cutoff(0.05, 29) == pytest.approx(1.699, abs=5e-4)

    def test_bitwise_scipy_stats_t_ppf(self):
        from scipy.stats import t
        for df in range(1, 200, 7):
            for alpha in (0.005, 0.025, 0.05, 0.1, 0.25, 0.5):
                assert student_t_cutoff(alpha, df) == float(t.ppf(1.0 - alpha, df)), (alpha, df)

    def test_scipy_stats_loaded_only_on_use(self):
        code = ("import sys, randpivot, randpivot.cli\n"
                "assert 'scipy.special' not in sys.modules\n"
                "print(randpivot.student_t_cutoff(0.05, 19))\n"
                "assert 'scipy.special' in sys.modules\n"
                "assert 'scipy.stats' not in sys.modules\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert float(out.stdout) == pytest.approx(1.729, abs=5e-4)


class TestCoverageStudy:
    def test_normal_n20_smoke(self):
        report = coverage_study(NORMAL, 20, 20, PivotKind.G1, reps=400,
                                alpha=0.05, sided="upper", seed=17)
        assert 0.90 <= report.coverage <= 0.97
        assert 0.89 <= report.classical_coverage <= 0.97
        assert report.coverage * report.reps == int(report.coverage * report.reps)
        assert report.degenerate_count == 0

    def test_median_cutoff_gives_half_coverage(self):
        # alpha = 0.5 one-sided: z = 0; symmetric data -> coverage ~ 0.5
        report = coverage_study(NORMAL, 30, 30, PivotKind.G1, reps=2000,
                                alpha=0.5, sided="upper", seed=18)
        assert abs(report.coverage - 0.5) < 0.05

    def test_deterministic_across_threads(self):
        a = coverage_study(NORMAL, 15, 15, PivotKind.G1, reps=300, alpha=0.05, seed=9)
        with _in_workers() as pools:
            b = coverage_study(NORMAL, 15, 15, PivotKind.G1, reps=300, alpha=0.05, seed=9,
                               threads=3)
        assert pools and a == b

    def test_pool_only_above_the_cut(self):
        # a replication of n = 5 costs 5 + 128 elements: 2,000 reps are a
        # quarter of mc._POOL_ELEMENTS, and 7,900 reps just exceed it.  An
        # outer replication of 400 rows costs 400 * 5 + 128 = 2,128: 492
        # outers stay below the cut, and 493 just exceed it.
        d = parse_dist("poisson:1")

        def outers(count, threads=1):
            return proportion_study(d, 5, PivotKind.G2, outer_reps=count, inner_reps=400,
                                    seed=3, threads=threads)

        want = (coverage_study(d, 5, 5, PivotKind.G2, 2000, 0.05, seed=3),
                kolmogorov_distance(PivotKind.G2, d, 5, 5, 2000, seed=3),
                proportion_study(d, 5, PivotKind.G2, outer_reps=10, inner_reps=40, seed=3),
                outers(492),
                coverage_study(d, 5, 5, PivotKind.G2, 7900, 0.05, seed=3), outers(493))
        with _in_workers(mc._POOL_ELEMENTS) as pools:
            small = (coverage_study(d, 5, 5, PivotKind.G2, 2000, 0.05, seed=3, threads=2),
                     kolmogorov_distance(PivotKind.G2, d, 5, 5, 2000, seed=3, threads=2),
                     proportion_study(d, 5, PivotKind.G2, outer_reps=10, inner_reps=40,
                                      seed=3, threads=2),
                     outers(492, threads=2))
            assert not pools
            large = (coverage_study(d, 5, 5, PivotKind.G2, 7900, 0.05, seed=3, threads=2),
                     outers(493, threads=2))
        assert len(pools) == 2 and (*small, *large) == want

    def test_degenerate_redraw_counted(self):
        # n = m = 2: the weight draw (1,1) is degenerate with probability 1/2,
        # so redraws must show up while coverage still uses the nominal reps
        report = coverage_study(NORMAL, 2, 2, PivotKind.G1, reps=200,
                                alpha=0.05, sided="upper", seed=19)
        assert report.degenerate_count > 50
        assert report.reps == 200

    def test_t_pivot_covers_sample_mean_event(self):
        report = coverage_study(NORMAL, 25, 25, PivotKind.T2, reps=400,
                                alpha=0.05, sided="two", seed=20)
        assert 0.88 <= report.coverage <= 0.99

    def test_g2_variant_runs(self):
        report = coverage_study(NORMAL, 30, 30, PivotKind.G2, reps=300,
                                alpha=0.05, sided="upper", seed=21)
        assert 0.85 <= report.coverage <= 1.0


class TestProportionStudy:
    def test_full_band_gives_one(self):
        report = proportion_study(NORMAL, 15, PivotKind.G1, outer_reps=40,
                                  inner_reps=50, band=(0.0, 1.0), seed=22)
        assert report.proportion == 1.0
        assert report.classical_proportion == 1.0

    @pytest.mark.parametrize("band", [(0.96, 0.94), (5.0, 9.0), (-0.1, 0.5), (0.5, 1.5)])
    def test_band_outside_unit_interval_or_reversed_rejected(self, band):
        with pytest.raises(ValueError, match="band"):
            proportion_study(NORMAL, 10, PivotKind.G1, outer_reps=2, inner_reps=5, band=band)

    def test_point_band_accepted(self):
        report = proportion_study(NORMAL, 10, PivotKind.G1, outer_reps=2, inner_reps=5,
                                  band=(0.5, 0.5))
        assert report.band == (0.5, 0.5)

    def test_proportion_normal_n30_exact_t_comparator(self):
        # G1 with the normal cutoff vs the exact-size t interval; the G1
        # proportion lands in a broad qualitative band around 0.628
        report = proportion_study(NORMAL, 30, PivotKind.G1, outer_reps=500,
                                  inner_reps=500, seed=23,
                                  classical_cutoff="student_t")
        assert 0.45 <= report.proportion <= 0.80

    def test_deterministic_across_threads(self):
        kw = dict(outer_reps=60, inner_reps=80, seed=24)
        a = proportion_study(NORMAL, 12, PivotKind.G1, **kw)
        with _in_workers() as pools:
            b = proportion_study(NORMAL, 12, PivotKind.G1, threads=2, **kw)
        assert pools and a == b

    def test_classical_t_on_lognormal_rarely_in_band(self):
        # heavy right skew overcovers one-sided t intervals so badly that
        # the inner estimates almost never land in [0.94, 0.96]
        d = parse_dist("lognormal:0,1")
        report = proportion_study(d, 20, PivotKind.G1, outer_reps=150,
                                  inner_reps=500, seed=27, threads=2)
        assert report.classical_proportion <= 0.05

    def test_dominance_binomial_smoke(self):
        d = parse_dist("binomial:10,0.1")
        report = proportion_study(d, 20, PivotKind.G1, outer_reps=120,
                                  inner_reps=500, seed=25)
        assert report.proportion > report.classical_proportion

    def test_g1_closer_to_nominal_on_skewed_families(self):
        # one-sided G1 coverage beats the classical t on right- and
        # left-skewed families at small n, in the same seeded run
        for spec in ("exponential:1", "lognormal:0,1", "beta:5,1"):
            for n in (20, 30):
                r = coverage_study(parse_dist(spec), n, n, PivotKind.G1,
                                   reps=800, alpha=0.05, sided="upper", seed=26)
                assert (abs(r.coverage - 0.95)
                        < abs(r.classical_coverage - 0.95)), (spec, n)


class TestKolmogorovDistance:
    def test_normal_limit_distance_small(self):
        dist = kolmogorov_distance(PivotKind.G1, NORMAL, 200, 200, reps=100000,
                                   seed=26, threads=4)
        assert dist < 0.03

    def test_subsample_scaled_pivots_also_near_normal(self):
        # the G2/T2 conditional CLTs hold at m = n too (fourth moment finite)
        for kind in (PivotKind.G2, PivotKind.T2):
            dist = kolmogorov_distance(kind, NORMAL, 200, 200, reps=30000,
                                       seed=26, threads=4)
            assert dist < 0.03, kind

    def test_half_sample_stability(self):
        d1 = kolmogorov_distance(PivotKind.G1, NORMAL, 50, 50, reps=20000, seed=27)
        d2 = kolmogorov_distance(PivotKind.G1, NORMAL, 50, 50, reps=20000, seed=28)
        assert abs(d1 - d2) < 0.01

    def test_phi_on_grid_evaluated_once_on_first_use(self):
        code = ("import randpivot.mc as mc; "
                "assert mc._kdist_phi.cache_info().currsize == 0; "
                "mc.kolmogorov_distance('g1', mc.parse_dist('normal:0,1'), 10, 10, 20); "
                "mc.kolmogorov_distance('t1', mc.parse_dist('normal:0,1'), 10, 10, 20); "
                "info = mc._kdist_phi.cache_info(); "
                "assert (info.misses, info.hits) == (1, 1), info")
        subprocess.run([sys.executable, "-c", code], check=True)
        phi = mc._kdist_phi()
        assert not phi.flags.writeable
        assert phi.tobytes() == np.array([norm_cdf(t) for t in mc.KDIST_GRID]).tobytes()

    def test_deterministic_across_threads(self):
        a = kolmogorov_distance(PivotKind.G1, NORMAL, 30, 30, reps=4000, seed=29)
        with _in_workers() as pools:
            b = kolmogorov_distance(PivotKind.G1, NORMAL, 30, 30, reps=4000, seed=29,
                                    threads=3)
        assert pools and a == b


class TestSerialization:
    def test_stderr_formula(self):
        report = coverage_study(NORMAL, 10, 10, PivotKind.G1, reps=100, seed=33, alpha=0.05)
        p = report.coverage
        assert report.stderr == pytest.approx(math.sqrt(p * (1 - p) / 100), rel=1e-12)
        payload = report.to_dict()
        assert payload["schema_version"] == 1 and payload["kind"] == "coverage"
        assert payload["coverage"] == p and payload["stderr"] == report.stderr
        assert payload["seed"] == 33
        assert report.to_dict() == payload  # stable


SIDES = {"upper": lambda v, c: v <= c, "lower": lambda v, c: v >= -c,
         "two": lambda v, c: np.abs(v) <= c}


def _replay(d, n, kind, reps, seed, alpha=0.05):
    """Replications through the single-sample API, as coverage_study keys them.

    Returns the pivot values, the per-sidedness (hits, classical hits) and
    the redraw count.  G-pivots are covered via ci_mu(...).contains(mu).
    """
    mu = d.true_mean
    hits = {sided: [0, 0] for sided in SIDES}
    values, redraws = [], 0
    for r in range(reps):
        for attempt in range(mc.MAX_REDRAWS):
            rng = stream(seed, r, attempt)
            x = gen_sample(d, n, rng)
            w = draw_weights(n, n, rng)
            try:
                val = pivot(kind, x, w, mu=mu if kind.needs_mu else None)
                cis = {sided: ci_mu(x, w, alpha, variant=kind.value, sided=sided)
                       for sided in SIDES} if kind.needs_mu else None
            except (DegenerateWeights, ZeroScale):
                continue
            s1 = float(x.std(ddof=1))
            if s1 == 0.0:
                continue
            tval = (float(x.mean()) - mu) / (s1 / math.sqrt(n))
            break
        else:
            raise AssertionError(f"replication {r} never valid")
        redraws += attempt
        values.append(val)
        for sided, event in SIDES.items():
            z = critical_z(alpha / 2.0 if sided == "two" else alpha)
            hits[sided][0] += cis[sided].contains(mu) if cis else event(val, z)
            hits[sided][1] += event(tval, z)
    return np.array(values), hits, redraws


class TestRowEngineMatchesSingleSampleApi:
    @pytest.mark.parametrize("kind", list(PivotKind))
    @pytest.mark.parametrize("spec,n", [("normal:0,1", 20), ("poisson:1", 5),
                                        ("exponential:1", 20)])
    def test_reports_equal_replay(self, spec, n, kind):
        d = parse_dist(spec)
        reps, seed = 150, 41
        values, hits, redraws = _replay(d, n, kind, reps, seed)
        for sided, (h, th) in hits.items():
            report = coverage_study(d, n, n, kind, reps, 0.05, sided=sided, seed=seed)
            assert report.coverage == h / reps, sided
            assert report.classical_coverage == th / reps, sided
            assert report.degenerate_count == redraws, sided
        ecdf = np.searchsorted(np.sort(values), mc.KDIST_GRID, side="right") / reps
        phi = np.array([norm_cdf(t) for t in mc.KDIST_GRID])
        assert kolmogorov_distance(kind, d, n, n, reps, seed=seed) == \
            float(np.max(np.abs(ecdf - phi)))

    def test_redraws_exercised(self):
        # poisson:1 n=5 with the sub-sample scale redraws often, so the
        # equivalence above also covers the redraw keying
        assert _replay(parse_dist("poisson:1"), 5, PivotKind.G2, 150, 41)[2] > 10

    def test_block_size_does_not_change_results(self, monkeypatch):
        d = parse_dist("poisson:1")
        want = coverage_study(d, 5, 5, PivotKind.T2, 300, 0.05, seed=3)
        want_kd = kolmogorov_distance(PivotKind.T2, d, 5, 5, 300, seed=3)
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 7)
        assert coverage_study(d, 5, 5, PivotKind.T2, 300, 0.05, seed=3) == want
        assert kolmogorov_distance(PivotKind.T2, d, 5, 5, 300, seed=3) == want_kd

    @pytest.mark.parametrize("threads", [1, 2])
    def test_proportion_block_size_does_not_change_reports(self, threads, monkeypatch):
        # binomial:10,0.1 at n=3 with the sub-sample scale redraws many rows.
        # Budgets: the default (a chunk in one block), 7 (one outer replication
        # a block) and two or three outers a block, which split the 20 outers
        # at threads=1, and the workers' chunks of 3 at threads=2, unevenly.
        d, per_outer = parse_dist("binomial:10,0.1"), 40 * 3
        reports = []
        for block in (mc._BLOCK_ELEMENTS, 7, 2 * per_outer, 3 * per_outer):
            monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block)
            with _in_workers() as pools:
                reports.append(proportion_study(d, 3, PivotKind.T2, outer_reps=20,
                                                inner_reps=40, seed=9, threads=threads))
            assert bool(pools) == (threads > 1)
        assert reports[0].degenerate_count > 100
        assert all(report == reports[0] for report in reports)

    def test_exhausted_budget_names_first_replication(self, monkeypatch):
        # with a kernel that finds no row valid, the error names the lowest
        # replication whatever the threads and the block size (for
        # proportion: all 3 outers, one, or 2 and 1 in a block)
        _never_valid(monkeypatch)
        msg = ("{} had 100 consecutive degenerate draws; the configuration "
               "normal(0,1), n=5, m=5 looks unusable")

        def check(threads):
            with pytest.raises(RandPivotError) as exc:
                coverage_study(NORMAL, 5, 5, PivotKind.T2, 7, 0.05, threads=threads)
            assert str(exc.value) == msg.format("replication 0")
            with pytest.raises(RandPivotError) as exc:
                proportion_study(NORMAL, 5, PivotKind.T2, outer_reps=3, inner_reps=4,
                                 threads=threads)
            assert str(exc.value) == msg.format("inner replication 0 of outer replication 0")

        for block in (mc._BLOCK_ELEMENTS, 5, 2 * 4 * 5):
            monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block)
            check(threads=1)
            with _split_forced() as names:  # both halves fail: this thread's half is named
                check(threads=1)
            assert names == ["randpivot-half"] * 2
        with _in_workers() as pools:
            check(threads=2)
        assert len(pools) == 2

    def test_exhausted_budget_names_a_later_unit(self, monkeypatch):
        # The kernel finds every row valid in the study's first block (the
        # one whose first row is unit 0's first row) and the last two rows of
        # every other call invalid, so a later block keeps its last two rows
        # invalid until the budget is spent.  Those rows are named by their
        # unit, past the first: in-process, 40 elements make blocks of 8
        # coverage replications or 2 proportion outers of 4 rows; a split's
        # halves, given 3/4 of 54 elements, make the same blocks, the failing
        # one in the second half only; at threads=2 the unit opens the
        # second range.
        batch_values, first_row = mc._batch_values, gen_sample(NORMAL, 5, stream(0, 0, 0))

        def valid_in_first_block(kind, x, *args):
            vals, tvals, valid = batch_values(kind, x, *args)
            if not np.array_equal(x[0], first_row):
                valid[-2:] = False
            return vals, tvals, valid

        monkeypatch.setattr(mc, "_batch_values", valid_in_first_block)
        msg = ("{} had 100 consecutive degenerate draws; the configuration "
               "normal(0,1), n=5, m=5 looks unusable")
        for threads, unit, outer, split in ((1, 14, 3, False), (1, 14, 3, True), (2, 2, 1, False)):
            monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 54 if split else 40)
            with _in_workers() as pools, \
                    _split_forced() if split else contextlib.nullcontext([]) as names:
                with pytest.raises(RandPivotError) as exc:
                    coverage_study(NORMAL, 5, 5, PivotKind.T2, 16, 0.05, threads=threads)
                assert str(exc.value) == msg.format(f"replication {unit}")
                with pytest.raises(RandPivotError) as exc:
                    proportion_study(NORMAL, 5, PivotKind.T2, outer_reps=4, inner_reps=4,
                                     threads=threads)
                assert str(exc.value) == msg.format(
                    f"inner replication 2 of outer replication {outer}")
            assert len(pools) == (2 if threads > 1 else 0)
            assert names == ["randpivot-half"] * (2 if split else 0)

    @pytest.mark.parametrize("failing", [{12}, {5, 12}, {3, 5}])
    def test_exhausted_budget_names_the_same_unit_split(self, failing, monkeypatch):
        # Row 0 of each failing unit stays invalid at every attempt, whatever
        # the blocks; the split's halves are units 0-7 and 8-15, and its
        # error names the serial run's unit, in whichever half it is.
        firsts = {gen_sample(NORMAL, 5, stream(0, u, a)).tobytes()
                  for u in failing for a in range(mc.MAX_REDRAWS)}
        batch_values = mc._batch_values

        def failing_units(kind, x, *args):
            vals, tvals, valid = batch_values(kind, x, *args)
            return vals, tvals, valid & [row.tobytes() not in firsts for row in x]

        monkeypatch.setattr(mc, "_batch_values", failing_units)
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 15)
        msg = ("{} had 100 consecutive degenerate draws; the configuration "
               "normal(0,1), n=5, m=5 looks unusable")
        unit = min(failing)
        for split in (False, True):
            with _split_forced() if split else contextlib.nullcontext([]) as names:
                with pytest.raises(RandPivotError) as exc:
                    coverage_study(NORMAL, 5, 5, PivotKind.T2, 16, 0.05)
                assert str(exc.value) == msg.format(f"replication {unit}")
                with pytest.raises(RandPivotError) as exc:
                    proportion_study(NORMAL, 5, PivotKind.T2, outer_reps=16, inner_reps=3)
                assert str(exc.value) == msg.format(
                    f"inner replication 0 of outer replication {unit}")
            assert names == ["randpivot-half"] * (2 if split else 0)


def _proportion_replay(d, n, kind, outer, inner, seed, band, alpha=0.05):
    """Outer replications drawn one generator per draw, as proportion_study keys them.

    Outer o draws its inner rows from stream(seed, o, 0), and the rows still
    invalid at attempt a from stream(seed, o, a): first gen_sample(d, k*n),
    then draw_indices(n, k*m), counted row by row.  Returns per sidedness
    the (in-band, classical in-band) counts, and the redraw count.
    """
    mu, lo, hi = d.true_mean, *band
    in_band = {sided: [0, 0] for sided in SIDES}
    redraws = 0
    for o in range(outer):
        vals, tvals = np.empty(inner), np.empty(inner)
        which = np.arange(inner)
        for attempt in range(mc.MAX_REDRAWS):
            rng = stream(seed, o, attempt)
            k = which.size
            x = gen_sample(d, k * n, rng).reshape(k, n)
            idx = draw_indices(n, k * n, rng).reshape(k, n)
            w = np.array([np.bincount(row, minlength=n) for row in idx])
            # column-major, so that the rows are summed as the study sums them
            vals[which], tvals[which], ok = mc._batch_values(
                kind, np.asfortranarray(x), np.asfortranarray(w), n, mu)
            which = which[~ok]
            if which.size == 0:
                break
            redraws += which.size
        else:
            raise AssertionError(f"outer replication {o} never valid")
        for sided, event in SIDES.items():
            z = critical_z(alpha / 2.0 if sided == "two" else alpha)
            in_band[sided][0] += lo <= int(event(vals, z).sum()) / inner <= hi
            in_band[sided][1] += lo <= int(event(tvals, z).sum()) / inner <= hi
    return in_band, redraws


class TestProportionMatchesReplay:
    @pytest.mark.parametrize("kind", list(PivotKind))
    @pytest.mark.parametrize("spec,n,band", [("normal:0,1", 20, (0.93, 0.97)),
                                             ("poisson:1", 5, (0.85, 0.97))])
    def test_report_equals_replay(self, spec, n, band, kind, seed=43):
        d = parse_dist(spec)
        outer, inner = 30, 100
        in_band, redraws = _proportion_replay(d, n, kind, outer, inner, seed, band)
        # some outers land in the band and some out, and the poisson cell
        # redraws, so a key or a count taken from the wrong outer or row
        # changes a report
        assert 0 < in_band["two"][0] < outer
        assert (redraws > 0) == (spec == "poisson:1")
        for sided, (hits, t_hits) in in_band.items():
            report = proportion_study(d, n, kind, outer_reps=outer, inner_reps=inner,
                                      band=band, seed=seed, sided=sided)
            assert report.proportion == hits / outer, sided
            assert report.classical_proportion == t_hits / outer, sided
            assert report.degenerate_count == redraws, sided

    @pytest.mark.parametrize("seed", [2**64 + 5, 2**96 + 7, 2**200 + 1])
    def test_report_equals_replay_at_a_seed_of_five_words_or_more(self, seed):
        # seed, outer index and attempt fill five, six and nine 32-bit
        # words, so the keys run the steps that mix one, two and five
        # entropy words past the pool of four, attempt 0 included
        self.test_report_equals_replay("poisson:1", 5, (0.85, 0.97), PivotKind.G2, seed)


class TestCoverageIsProportionsOneRowCase:
    """A coverage replication r is a proportion outer replication r of one
    inner row: both key attempt a of r as (seed, r, a), and both draw the
    sample, then the indices.  So band (1, 1) counts the covered rows."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("seed", [0, 41, 2**40 + 3, 2**64 - 1, 2**64 + 5, 2**70,
                                      2**200 + 1])
    def test_reports_agree(self, seed, threads):
        d, reps = parse_dist("poisson:1"), 300
        with _in_workers() as pools:
            cov = coverage_study(d, 5, 5, PivotKind.G2, reps, 0.05, sided="two", seed=seed,
                                 classical_cutoff="student_t", threads=threads)
            prop = proportion_study(d, 5, PivotKind.G2, outer_reps=reps, inner_reps=1,
                                    band=(1.0, 1.0), seed=seed, sided="two",
                                    classical_cutoff="student_t", threads=threads)
        assert len(pools) == (2 if threads > 1 else 0)
        assert cov.degenerate_count > 30  # the redraw keys are compared too
        assert cov.coverage == prop.proportion
        assert cov.classical_coverage == prop.classical_proportion
        assert cov.degenerate_count == prop.degenerate_count


def _never_valid(monkeypatch):
    """Make the row kernel report every row invalid, so every study exhausts
    its redraw budget.  Forked workers inherit the patch."""
    batch_values = mc._batch_values

    def never_valid(*args):
        vals, tvals, valid = batch_values(*args)
        return vals, tvals, np.zeros_like(valid)

    monkeypatch.setattr(mc, "_batch_values", never_valid)


# Values a row sum must carry bitwise: signed zeros, subnormals, 1e+-300
# and values whose sums overflow to +-inf (and inf - inf to nan).
_SUM_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e-300, -1e-300,
                          1e300, -1e300, 1.7e308, -1.7e308, 1.0, -0.1])


class TestStudyRowSum:
    """mc._rowsum adds the columns of a column-major block one at a time to a
    zero vector, whatever the number of rows, one included: every study
    block is column-major, and numpy reduces two or more of its rows in that
    order.  This pins the order at the running numpy version."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 300), rows=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
           special=st.floats(0.0, 1.0))
    @example(n=7, rows=3, seed=1, special=0.5)
    @example(n=8, rows=2000, seed=2, special=0.0)
    @example(n=128, rows=5, seed=3, special=0.3)
    @example(n=129, rows=5, seed=4, special=0.3)
    @example(n=300, rows=1, seed=5, special=1.0)
    def test_adds_columns_left_to_right(self, n, rows, seed, special):
        g = np.random.default_rng(seed)
        a = g.standard_normal((rows, n)) * 10.0 ** g.integers(-30, 30, (rows, n))
        mask = g.random((rows, n)) < special
        a[mask] = g.choice(_SUM_SPECIALS, int(mask.sum()))
        if rows > 1:
            a[g.integers(rows)] = -0.0  # the sum starts at 0.0: it is +0.0
        a = np.asfortranarray(a)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.zeros(rows)
            for col in a.T:
                want = want + col
            # the block, and its first rows each summed alone
            for lo, block in [(0, a), *((i, a[i:i + 1]) for i in range(min(rows, 3)))]:
                got = mc._rowsum(block)
                assert got.tobytes() == want[lo:lo + len(block)].tobytes(), (
                    f"rows={len(block)} n={n}: the study row sum left the left-to-right "
                    f"order under numpy {np.__version__}")
        assert not np.signbit(want[np.all(a == 0.0, axis=1)]).any()


# Cells of n >= 8, where numpy's pairwise order leaves the left-to-right
# one, that redraw rows, so that some rows are summed as a lone row.
_GROUPING_CELLS = [("poisson:1", 9, PivotKind.G2), ("binomial:10,0.1", 10, PivotKind.G2),
                   ("binomial:10,0.1", 8, PivotKind.T2)]


def _checksum(vals, tvals):
    """A tally that sums exactly over blocks and chunks and changes when any
    value does: the wrapping uint64 sums of the bit patterns of each array."""
    return np.array([vals.view(np.uint64).sum(), tvals.view(np.uint64).sum()])


def _tallied_rows(study):
    """The pivot and t values of every row of study() at threads=1, in row
    order, as its blocks hand them to their tally (mc._in_band), and the
    report."""
    in_band, blocks = mc._in_band, []

    def spy(*args):
        blocks.append(args[-2:])
        return in_band(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_in_band", spy)
        report = study()
    assert report.degenerate_count > 0
    return [np.concatenate(v) for v in zip(*blocks)], report


class TestStudyBlocks:
    """Study values do not depend on how rows are grouped, and every block is
    summed in one order: column-major, left to right."""

    @pytest.mark.parametrize("spec,n,kind", _GROUPING_CELLS)
    def test_values_do_not_depend_on_grouping(self, spec, n, kind, monkeypatch):
        # one row a block (budgets 1 and 7), the default budget, and two
        # processes, which return the checksum tally; the redraws sum some
        # rows alone
        d, results = parse_dist(spec), []
        for block in (1, 7, mc._BLOCK_ELEMENTS):
            monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block)
            (vals, tvals), report = _tallied_rows(
                lambda: coverage_study(d, n, n, kind, 300, 0.05, seed=5))
            results.append((vals, tvals, report.degenerate_count))
        with _in_workers() as pools:
            pooled = mc._run_chunks(300, 2, d, n, n, kind, 5, 1, "replication {0}",
                                    _checksum)
        assert pools and pooled.dtype == np.uint64
        for vals, tvals, redraws in results:
            assert vals.tobytes() == results[0][0].tobytes()
            assert tvals.tobytes() == results[0][1].tobytes()
            assert redraws == results[0][2]
        assert pooled.tolist() == [*_checksum(*results[0][:2]).tolist(), results[0][2]]

        def proportion_rows():
            rows, _ = _tallied_rows(lambda: proportion_study(d, n, kind, outer_reps=8,
                                                             inner_reps=60, seed=5))
            return [v.tobytes() for v in rows]

        default = proportion_rows()  # the default budget, set last above
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 1)  # one outer replication a block
        assert proportion_rows() == default

    def test_every_summed_block_is_column_major(self, monkeypatch):
        # a row-major block would be summed pairwise with no other sign
        rowsum, shapes = mc._rowsum, []

        def summed(a):
            assert len(a) == 1 or a.strides[0] == a.itemsize, (a.shape, a.strides)
            shapes.append(a.shape)
            return a

        def spy(*operands, terms=None, out=None):
            if terms is None:
                return rowsum(summed(operands[0]))
            return rowsum(*operands, out=out,
                          terms=lambda *args, out: summed(terms(*args, out=out)))

        monkeypatch.setattr(mc, "_rowsum", spy)
        d = parse_dist("binomial:10,0.1")
        assert coverage_study(d, 8, 8, PivotKind.T2, 300, 0.05, seed=5).degenerate_count > 0
        kolmogorov_distance(PivotKind.G2, d, 10, 10, 300, seed=5)
        assert proportion_study(d, 8, PivotKind.T2, outer_reps=8, inner_reps=60,
                                seed=5).degenerate_count > 0
        rows = [shape[0] for shape in shapes]
        assert min(rows) < max(rows)  # the redraws' smaller blocks were summed too


class TestStudyTallies:
    """Every block is reduced to an integer tally, so no value outlives it."""

    @pytest.mark.parametrize("study", [
        lambda reps: coverage_study(NORMAL, 5, 5, PivotKind.G1, reps, 0.05),
        lambda reps: kolmogorov_distance(PivotKind.G1, NORMAL, 5, 5, reps),
        lambda reps: proportion_study(NORMAL, 5, PivotKind.G1, outer_reps=reps, inner_reps=1)],
        ids=["coverage", "kdist", "proportion"])
    def test_peak_memory_does_not_grow_with_reps(self, study, monkeypatch):
        # 64 rows a block, so that both runs are of whole blocks; holding the
        # values, or the stream keys, of 4,000 replications would take 64 KB
        # more.  Both runs are made once untraced, so that numpy's first-use
        # allocations are not counted.
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 64 * 5)
        peaks, sizes = [], (200, 4000)
        for reps in sizes:
            study(reps)
        for reps in sizes:
            tracemalloc.start()
            try:
                study(reps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8192, peaks

    @pytest.mark.parametrize("tally", [mc._ecdf_counts, functools.partial(
        mc._in_band, 1.6, 1.6, "upper", 1, (1, 1))], ids=["kdist", "coverage"])
    def test_pickled_chunk_result_does_not_grow_with_range(self, tally):
        sizes = [len(pickle.dumps(mc._study_chunk(
            (NORMAL, 5, 5, PivotKind.G1, 0, 1, "replication {0}", tally, 0, stop))))
            for stop in (10, 3000)]
        assert sizes[0] == sizes[1] < 5 * 1024, sizes

    @pytest.mark.parametrize("seed", range(6))
    def test_summed_block_ecdf_counts_are_the_global_counts(self, seed):
        # values on grid points, signed zeros, infinities and NaN included
        rng, grid = np.random.default_rng(seed), mc.KDIST_GRID
        values = np.concatenate([rng.normal(0.0, 3.0, 1500), rng.choice(grid, 300),
                                 rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], 40)])
        rng.shuffle(values)
        cuts = np.sort(rng.choice(np.arange(1, values.size), rng.integers(1, 40), replace=False))
        summed = sum(mc._ecdf_counts(block, block) for block in np.split(values, cuts))
        want = np.searchsorted(np.sort(values), grid, side="right")
        assert summed.tolist() == want.tolist()
        assert want.tolist() == np.count_nonzero(values[:, None] <= grid, axis=0).tolist()


EPS = np.finfo(np.float64).eps


def _left_to_right(terms: np.ndarray) -> float:
    """The terms added one at a time, left to right, from 0.0."""
    return functools.reduce(operator.add, terms.tolist(), 0.0)


def _exact_rows(*operands, terms=None, out=None) -> np.ndarray:
    """The exact sum of each row of a matrix, or of terms(*operands) over
    the operands broadcast to rows: pivots._exact_sum row by row."""
    rows = zip(*np.broadcast_arrays(*operands))
    return np.array([pivots._exact_sum(*row, terms=terms) for row in rows])


def _row_matrix(draw, rows, n):
    """rows x n values on a 1/8 grid in [-1000, 1000], some rows constant."""
    x = np.array(draw(st.lists(st.integers(-8000, 8000), min_size=rows * n,
                               max_size=rows * n)), dtype=np.float64).reshape(rows, n) / 8.0
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=rows)):
        x[i] = x[i, 0]
    return x


class TestRowKernelAgreesWithSingleSample:
    """The row kernel against per-row left-to-right sums, pivot() and edf_pivot().

    On column-major blocks, as the studies build them, the means, S_n^2,
    classical s.d.s, classical t values and the validity mask of the
    studies' rows must be bitwise those of each row's terms added left to
    right from 0.0.  Summed exactly, each row of the
    kernel is bitwise pivot() and edf_pivot(), and its sum d_i^2 and scale
    are zero exactly where those raise DegenerateWeights and ZeroScale.
    The studies' values are the same formula summed left to right,
    so they agree with the exact ones within the rounding error bound of
    a sum of about n + m terms: |batch - exact| <= 16 (n + m) eps
    (1 + |exact| + sum |d_i| |x_i - c| / (S sqrt(sum d_i^2))), with c = mu
    for G-pivots and 0 for T-pivots.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), n=st.integers(2, 30),
           m=st.integers(1, 40), mu=st.integers(-80, 80).map(lambda k: k / 8.0))
    def test_kernel_matches_per_row(self, data, rows, n, m, mu):
        x = np.asfortranarray(_row_matrix(data.draw, rows, n))
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=rows * m,
                                          max_size=rows * m))).reshape(rows, m)
        counts = mc._counts_matrix(idx, n)
        mean, var, s1 = pivots._row_moments(x, mc._rowsum)
        row_mean, row_var, row_s1 = [], [], []
        for i in range(rows):
            row_mean.append(_left_to_right(x[i]) / n)
            css = _left_to_right((x[i] - row_mean[i]) ** 2)
            row_var.append(css / n)
            row_s1.append(math.sqrt(css / (n - 1)))
            assert mean[i].tobytes() == np.float64(row_mean[i]).tobytes()
            assert var[i].tobytes() == np.float64(row_var[i]).tobytes()
            assert s1[i].tobytes() == np.float64(row_s1[i]).tobytes()
        exact_var = pivots._row_moments(x, _exact_rows)[1]
        for kind in PivotKind:
            vals, tvals, valid = mc._batch_values(kind, x, counts, m, mu)
            center = mu if kind.needs_mu else None
            if kind.uses_subsample_scale:
                scale2 = pivots._reweighted(counts, x, m, _exact_rows)[1]
            else:
                scale2 = exact_var
            exact, ssq = pivots._studentized(counts, m, x, center, scale2, _exact_rows)
            for i in range(rows):
                w = WeightVector(counts[i].astype(np.int64), m, n)
                s1_row = row_s1[i]
                if kind.uses_subsample_scale:
                    c = counts[i]
                    rmean = _left_to_right(c * x[i]) / m
                    row_scale2 = _left_to_right(c * (x[i] - rmean) ** 2) / m
                else:
                    row_scale2 = row_var[i]
                nondegenerate = bool((w.counts != m / n).any())
                assert valid[i] == (nondegenerate and row_scale2 > 0.0 and s1_row > 0.0)
                if s1_row > 0.0:
                    t = (row_mean[i] - mu) / (s1_row / math.sqrt(n))
                    assert tvals[i].tobytes() == np.float64(t).tobytes()
                try:
                    want = pivot(kind, x[i], w, mu=center)
                except DegenerateWeights:
                    assert ssq[i] == 0.0
                    continue
                except ZeroScale:
                    assert ssq[i] > 0.0 and scale2[i] == 0.0
                    continue
                assert ssq[i] > 0.0 and scale2[i] > 0.0
                assert exact[i].tobytes() == np.float64(want).tobytes(), (kind, i)
                if not valid[i]:
                    continue
                dev = counts[i] / m - 1.0 / n
                cond = (np.abs(dev) * np.abs(x[i] - (center or 0.0))).sum() / math.sqrt(
                    row_scale2 * (dev * dev).sum())
                tol = 16 * (n + m) * EPS * (1.0 + abs(want) + cond)
                assert abs(vals[i] - want) <= tol, (kind, i, vals[i], want, tol)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), n=st.integers(2, 30),
           m=st.integers(1, 40), at=st.integers(-80, 80).map(lambda k: k / 8.0),
           f_x=st.floats(0.0, 1.0))
    def test_exact_kernel_on_indicators_is_edf_pivot(self, data, rows, n, m, at, f_x):
        x = _row_matrix(data.draw, rows, n)
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=rows * m,
                                          max_size=rows * m))).reshape(rows, m)
        counts = mc._counts_matrix(idx, n)
        ind = (x <= at).astype(np.float64)
        f_n = ind.sum(axis=1) / n
        f_mn = (counts * ind).sum(axis=1) / m
        for s in ("hat1", "hat2", "hathat1", "hathat2"):
            f = f_n if s in ("hat1", "hat2") else f_mn
            scale2 = f * (1.0 - f)
            center = None if s in ("hat1", "hathat1") else f_x
            exact, ssq = pivots._studentized(counts, m, ind, center, scale2, _exact_rows)
            for i in range(rows):
                w = WeightVector(counts[i].astype(np.int64), m, n)
                try:
                    want = edf_pivot(s, x[i], w, at, f_x=f_x)
                except DegenerateWeights:
                    assert ssq[i] == 0.0
                    continue
                except ZeroScale:
                    assert ssq[i] > 0.0 and scale2[i] == 0.0
                    continue
                assert ssq[i] > 0.0 and scale2[i] > 0.0
                assert exact[i].tobytes() == np.float64(want).tobytes(), (s, i)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), n=st.integers(2, 30),
           m=st.integers(1, 40), mu=st.integers(-80, 80).map(lambda k: k / 8.0))
    def test_integer_counts_are_per_row_bincounts_and_equal_float_counts(
            self, data, rows, n, m, mu):
        x = _row_matrix(data.draw, rows, n)
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=rows * m,
                                          max_size=rows * m))).reshape(rows, m)
        counts = mc._counts_matrix(idx.copy(), n)  # it overwrites its argument
        assert counts.dtype == np.int64 and counts.shape == (rows, n)
        for i in range(rows):
            assert np.array_equal(counts[i], np.bincount(idx[i], minlength=n))
        for kind in PivotKind:
            ints = mc._batch_values(kind, x, counts, m, mu)
            floats = mc._batch_values(kind, x, counts.astype(np.float64), m, mu)
            for a, b in zip(ints, floats):
                assert a.tobytes() == b.tobytes(), kind

    def test_zero_classical_scale_invalid_under_positive_subsample_scale(self):
        # x = (0.1, 0.1) has s.d. 0, but with weights (2, 1) the rounded
        # sub-sample mean misses 0.1, so S_{m,n}^2 is a tiny positive number
        x, counts = np.array([[0.1, 0.1]]), np.array([[2.0, 1.0]])
        assert (counts * (x - (counts * x).sum() / 3) ** 2).sum() > 0.0
        for kind in (PivotKind.T2, PivotKind.G2):
            assert not mc._batch_values(kind, x, counts, 3, 0.0)[2][0]


class TestStudyInputs:
    @pytest.mark.parametrize("kind", list(PivotKind))
    @pytest.mark.parametrize("sided,alpha", [("both", 0.05), ("upper", 0.7),
                                             ("lower", 0.7)])
    def test_bad_sided_or_alpha_rejected(self, kind, sided, alpha):
        with pytest.raises(ValueError):
            coverage_study(NORMAL, 10, 10, kind, reps=5, alpha=alpha, sided=sided)
        with pytest.raises(ValueError):
            proportion_study(NORMAL, 10, kind, outer_reps=2, inner_reps=5,
                             alpha=alpha, sided=sided)

    @pytest.mark.parametrize("kind", list(PivotKind))
    def test_overflowing_scale_is_redrawn_not_covered(self, kind):
        # every sample's squares overflow float64: an infinite scale would
        # make each pivot 0, inside any cutoff, so such rows are invalid
        huge = parse_dist("normal:0,1e300")
        for study in (lambda: coverage_study(huge, 5, 5, kind, reps=3, alpha=0.05),
                      lambda: kolmogorov_distance(kind, huge, 5, 5, reps=3),
                      lambda: proportion_study(huge, 5, kind, outer_reps=1, inner_reps=3)):
            with pytest.raises(RandPivotError, match="looks unusable"):
                study()

    @pytest.mark.parametrize("kind", list(PivotKind))
    def test_overflowing_row_sums_are_refused_without_a_warning(self, kind):
        # the row sums of x (and of c x) overflow too: still refused, and no
        # RuntimeWarning leaks whatever the warnings filter
        huge = parse_dist("uniform:0,1e308")
        for study in (lambda: coverage_study(huge, 5, 5, kind, reps=3, alpha=0.05),
                      lambda: kolmogorov_distance(kind, huge, 5, 5, reps=3),
                      lambda: proportion_study(huge, 5, kind, outer_reps=1, inner_reps=3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RandPivotError, match="looks unusable"):
                    study()

    @pytest.mark.parametrize("kind", [PivotKind.T2, PivotKind.G2])
    def test_one_redraw_budget(self, kind, monkeypatch):
        # With a kernel that finds no row valid, each study gives up after
        # MAX_REDRAWS draws of its one row.  A draw is one row key derived
        # by the row engine, for every study.
        _never_valid(monkeypatch)
        calls = []
        row_keys = mc._row_keys

        def counting_keys(seed, rows, attempt):
            calls.extend((seed, r, attempt) for r in np.asarray(rows).tolist())
            return row_keys(seed, rows, attempt)

        monkeypatch.setattr(mc, "_row_keys", counting_keys)
        studies = [
            lambda: coverage_study(NORMAL, 5, 5, kind, reps=1, alpha=0.05),
            lambda: kolmogorov_distance(kind, NORMAL, 5, 5, reps=1),
            lambda: proportion_study(NORMAL, 5, kind, outer_reps=1, inner_reps=1),
        ]
        for study in studies:
            calls.clear()
            with pytest.raises(RandPivotError):
                study()
            assert len(calls) == len(set(calls)) == mc.MAX_REDRAWS

    @pytest.mark.parametrize("n,m,error", [(1, 1, TooFewObservations), (0, 3, TooFewObservations),
                                           (-3, 3, TooFewObservations), (5, 0, ValueError),
                                           (5, -2, ValueError), (5, 25, ValueError),
                                           (3, 10**11, ValueError)])
    def test_sizes_checked_before_any_draw(self, n, m, error, monkeypatch):
        calls = []
        monkeypatch.setattr(mc, "_row_keys", lambda *key: calls.append(key))
        studies = [
            lambda: coverage_study(NORMAL, n, m, PivotKind.G1, reps=5, alpha=0.05),
            lambda: kolmogorov_distance(PivotKind.G1, NORMAL, n, m, reps=5),
            lambda: proportion_study(NORMAL, n, PivotKind.G1, outer_reps=2, inner_reps=3, m=m),
        ]
        for study in studies:
            with pytest.raises(error, match=f"got n={n}" if error is TooFewObservations
                               else f"got {m}"):
                study()
        assert calls == []

    def test_m_up_to_n_squared_minus_1_is_taken(self):
        # subsample_size clamps to n^2 - 1 too: from m = n^2 the rate
        # max(m/n^2, 1/m) is at least 1
        assert coverage_study(NORMAL, 3, 8, PivotKind.G2, reps=5, alpha=0.05).m == 8
        assert proportion_study(NORMAL, 3, PivotKind.G1, outer_reps=2, inner_reps=3, m=8).m == 8
        assert 0.0 <= kolmogorov_distance(PivotKind.G1, NORMAL, 3, 8, reps=5) <= 1.0

    def test_proportion_default_m_is_checked_as_n(self):
        with pytest.raises(TooFewObservations):
            proportion_study(NORMAL, 1, PivotKind.T1, outer_reps=2, inner_reps=3)

    @pytest.mark.parametrize("spec,n,m,kind,match", [
        ("binomial:10,0", 10, 10, PivotKind.T1, "constant"),
        ("binomial:3,1", 10, 10, PivotKind.G1, "constant"),
        ("binomial:3,1", 10, 10, PivotKind.G2, "constant"),
        ("normal:0,1", 5, 1, PivotKind.T2, "t2 scale is zero for every draw at n=5, m=1"),
        ("normal:0,1", 5, 1, PivotKind.G2, "g2 scale is zero for every draw at n=5, m=1"),
        ("normal:0,1", 2, 2, PivotKind.T2, "t2 scale is zero for every draw at n=2, m=2"),
        ("normal:0,1", 2, 2, PivotKind.G2, "g2 scale is zero for every draw at n=2, m=2"),
    ])
    def test_unusable_configuration_refused_before_any_draw(self, spec, n, m, kind, match,
                                                            monkeypatch):
        calls = []
        monkeypatch.setattr(mc, "_row_keys", lambda *key: calls.append(key))
        d = parse_dist(spec)
        studies = [
            lambda: coverage_study(d, n, m, kind, reps=5, alpha=0.05),
            lambda: kolmogorov_distance(kind, d, n, m, reps=5),
            lambda: proportion_study(d, n, kind, outer_reps=2, inner_reps=3, m=m),
        ]
        for study in studies:
            with pytest.raises(ZeroScale, match=match):
                study()
        assert calls == []

    @pytest.mark.parametrize("n,m,kind", [(5, 1, PivotKind.T1), (5, 1, PivotKind.G1),
                                          (2, 3, PivotKind.T2), (3, 2, PivotKind.G2),
                                          (2, 2, PivotKind.G1)])
    def test_usable_neighbours_still_run(self, n, m, kind):
        # each of these configurations gives valid rows with positive probability
        report = coverage_study(NORMAL, n, m, kind, reps=20, alpha=0.05, seed=5)
        assert 0.0 <= report.coverage <= 1.0


FAMILIES = ["normal:0,1", "exponential:1", "lognormal_std:0,1", "poisson:3",
            "binomial:10,0.5", "beta:2,3", "uniform:0,1"]


def _outcome(study):
    """A study's report, or the type and message of the error it raised.

    The message names the first replication that stayed invalid, which
    does not depend on the split into chunks and blocks.
    """
    try:
        return study()
    except RandPivotError as exc:
        return type(exc), str(exc)


def _threads_agree(study):
    """study(threads) gives one outcome in-process and, in worker processes, at threads=2."""
    one = _outcome(lambda: study(1))
    with _in_workers() as pools:
        two = _outcome(lambda: study(2))
    assert two == one
    assert pools or isinstance(two, tuple)  # a study refused before any draw starts none


class TestThreadIndependence:
    """threads=2 gives the report threads=1 gives, for drawn configurations.

    n = 2 with T2 or G2 is refused before any draw, so the error a study
    raises is compared too, message included.
    """

    config = dict(spec=st.sampled_from(FAMILIES), n=st.integers(2, 30),
                  kind=st.sampled_from(list(PivotKind)), seed=st.integers(0, 2**32 - 1))

    @settings(max_examples=10, deadline=None)
    @given(reps=st.integers(2, 40), **config)
    @example(spec="normal:0,1", n=2, kind=PivotKind.T2, reps=5, seed=0)
    def test_coverage(self, spec, n, kind, reps, seed):
        d = parse_dist(spec)
        _threads_agree(lambda threads: coverage_study(d, n, n, kind, reps, 0.05, seed=seed,
                                                      threads=threads))

    @settings(max_examples=10, deadline=None)
    @given(outer=st.integers(2, 6), inner=st.integers(2, 30), **config)
    @example(spec="normal:0,1", n=2, kind=PivotKind.G2, outer=3, inner=4, seed=0)
    def test_proportion(self, spec, n, kind, outer, inner, seed):
        d = parse_dist(spec)
        _threads_agree(lambda threads: proportion_study(d, n, kind, outer_reps=outer,
                                                        inner_reps=inner, seed=seed,
                                                        threads=threads))

    @settings(max_examples=10, deadline=None)
    @given(reps=st.integers(2, 40), **config)
    @example(spec="normal:0,1", n=2, kind=PivotKind.T2, reps=5, seed=0)
    def test_kdist(self, spec, n, kind, reps, seed):
        d = parse_dist(spec)
        _threads_agree(lambda threads: kolmogorov_distance(kind, d, n, n, reps, seed=seed,
                                                           threads=threads))


POISSON = DistributionSpec("poisson", (1.0,))

# Studies run serially and with the split forced; the last argument is threads.
SPLIT_STUDIES = {
    "coverage redraws": lambda t: coverage_study(POISSON, 5, 5, PivotKind.G2, 301, 0.05,
                                                 seed=5, threads=t),
    "coverage m<n two-sided": lambda t: coverage_study(NORMAL, 12, 7, PivotKind.T2, 40, 0.1,
                                                       sided="two", seed=6, threads=t),
    "coverage student_t": lambda t: coverage_study(
        parse_dist("exponential:1"), 8, 8, PivotKind.G1, 57, 0.05, seed=7,
        classical_cutoff="student_t", threads=t),
    "kdist": lambda t: kolmogorov_distance(PivotKind.G1, NORMAL, 100, 100, 201, seed=8,
                                           threads=t),
    "kdist redraws": lambda t: kolmogorov_distance(PivotKind.G2, POISSON, 5, 5, 99, seed=9,
                                                   threads=t),
    "proportion redraws": lambda t: proportion_study(POISSON, 5, PivotKind.G2, outer_reps=9,
                                                     inner_reps=40, seed=10, threads=t),
    "proportion m>n two-sided student_t": lambda t: proportion_study(
        NORMAL, 6, PivotKind.G1, outer_reps=7, inner_reps=30, m=20, sided="two",
        classical_cutoff="student_t", band=(0.85, 1.0), seed=11, threads=t),
    **{f"proportion of {outer}": lambda t, outer=outer: proportion_study(
        POISSON, 5, PivotKind.T2, outer_reps=outer, inner_reps=25, seed=12, threads=t)
       for outer in (1, 2, 3)},
    **{f"coverage of {reps}": lambda t, reps=reps: coverage_study(
        POISSON, 5, 5, PivotKind.T1, reps, 0.05, seed=13, threads=t) for reps in (1, 2, 3)},
}


class TestSplitStudies:
    """An in-process study cut in halves over _pool.halves' helper thread
    gives the serial report bit for bit, and is cut only where its units
    are wide enough and its drawn elements many enough."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", list(SPLIT_STUDIES))
    def test_reports_equal_serial(self, name, threads):
        study = SPLIT_STUDIES[name]
        serial = study(1)
        with _in_workers(mc._POOL_ELEMENTS) as pools, _split_forced() as names:
            assert study(threads) == serial
        assert pools == []  # threads=2 below the pool cut runs in this process
        assert names == ([] if name.endswith(" of 1") else ["randpivot-half"])

    def test_recorded_reports_split(self):
        recorded = json.loads(RECORDED.read_text())
        with _split_forced() as names:
            assert _grid_reports((3, 20), 1) == recorded, NUMPY_NOTE
        assert len(names) == 3 * len(GRID_SPECS) * 2 * len(PivotKind)

    @pytest.mark.parametrize("study, splits", [
        # one-row units: 20 and 100 elements wide, 4 * 10^5 and 5 * 10^5 drawn
        (lambda: coverage_study(NORMAL, 20, 20, PivotKind.G1, 20_000, 0.05), False),
        (lambda: kolmogorov_distance(PivotKind.G1, NORMAL, 100, 100, 5_000), False),
        # 20 * 76 = 1,520 elements a unit, below the width; 2.6 * 10^5 drawn
        (lambda: proportion_study(NORMAL, 20, PivotKind.G1, outer_reps=173, inner_reps=76),
         False),
        # 24 * 64 = 1,536 a unit; drawn elements at the cut and just past it
        (lambda: proportion_study(NORMAL, 24, PivotKind.G1, outer_reps=170, inner_reps=64),
         False),
        (lambda: proportion_study(NORMAL, 24, PivotKind.G1, outer_reps=171, inner_reps=64),
         True),
    ], ids=["coverage", "kdist", "proportion narrow", "proportion at the cut",
            "proportion past the cut"])
    def test_split_only_for_wide_units_past_the_cut(self, study, splits, monkeypatch):
        assert 170 * 24 * 64 < _pool._SPLIT_ITEMS < 171 * 24 * 64 < 173 * 20 * 76
        assert 20 * 76 < mc._SPLIT_WIDTH == 24 * 64
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with started_threads() as names:
            study()
        assert names == (["randpivot-half"] if splits else [])

    def test_reports_equal_serial_under_fast_thread_switches(self):
        # the halves share only read-only state; switch threads as often as
        # the interpreter can, so an update lost between them would show
        study = SPLIT_STUDIES["proportion redraws"]
        serial = study(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _split_forced() as names:
                reports = [study(1) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert reports == [serial] * 3
        assert names == ["randpivot-half"] * 3

    def test_halves_take_three_quarters_of_the_block_budget(self, monkeypatch):
        # so that the two halves at once hold the buffers of 1.5 blocks
        blocks, chunk = [], mc._study_chunk

        def spy(args, block=None):
            blocks.append(block)
            return chunk(args, block)

        monkeypatch.setattr(mc, "_study_chunk", spy)
        study = SPLIT_STUDIES["proportion redraws"]
        serial = study(1)
        with _split_forced():
            assert study(1) == serial
        assert blocks == [None] + [3 * mc._BLOCK_ELEMENTS // 4] * 2

    def test_thread_count_restored_after_a_split_study_raises(self, monkeypatch):
        _never_valid(monkeypatch)
        count = threading.active_count()
        with _split_forced() as names, pytest.raises(RandPivotError):
            proportion_study(NORMAL, 5, PivotKind.T2, outer_reps=4, inner_reps=3)
        assert names == ["randpivot-half"]
        assert threading.active_count() == count


RECORDED = Path(__file__).parent / "golden" / "schema1_reports.json"
# Draws and sums are byte-identical at a fixed numpy version; a failure
# under another one names both.
RECORDED_NUMPY = "2.4.6"
NUMPY_NOTE = f"recorded with numpy {RECORDED_NUMPY}, running numpy {np.__version__}"
GRID_SPECS = ["normal:0,1", "exponential:1", "lognormal:0,1", "lognormal_std:0,1",
              "poisson:1", "binomial:10,0.1", "beta:5,1", "uniform:0,1"]


def _grid_reports(ns, threads):
    """The grid's coverage, kdist and proportion results, keyed by cell.

    n = 3 on the discrete families redraws many rows (binomial:10,0.1
    with a sub-sample scale most of all), so the grid covers the redraw
    keying too.
    """
    out = {}
    for spec in GRID_SPECS:
        d = parse_dist(spec)
        for n in ns:
            for kind in PivotKind:
                out[f"{spec} n={n} {kind.value}"] = {
                    "coverage": coverage_study(d, n, n, kind, 60, 0.05, sided="two", seed=61,
                                               classical_cutoff="student_t",
                                               threads=threads).to_dict(),
                    "kdist": kolmogorov_distance(kind, d, n, n, 60, seed=62, threads=threads),
                    "proportion": proportion_study(d, n, kind, outer_reps=3, inner_reps=40,
                                                   seed=63, threads=threads).to_dict(),
                }
    return out


class TestRecordedReports:
    """Reports on a fixed grid equal those recorded at SCHEMA_VERSION 1.

    The record is json.dumps(_grid_reports((3, 20), 1), indent=1,
    sort_keys=True), written by the engine that built one stream(seed, r,
    a) per row.  A change to the keys, the draws or the kernel arithmetic
    shows here; the record changes only with SCHEMA_VERSION.
    """

    def test_threads_1(self):
        recorded = json.loads(RECORDED.read_text())
        assert mc.SCHEMA_VERSION == 1
        assert _grid_reports((3, 20), 1) == recorded, NUMPY_NOTE

    def test_threads_2(self):
        recorded = json.loads(RECORDED.read_text())
        with _in_workers() as pools:
            got = _grid_reports((3,), 2)
        assert pools
        assert got == {cell: recorded[cell] for cell in got}, NUMPY_NOTE


def _flag_also(monkeypatch, extra):
    """Make the studies' raw-word pass flag also the rows extra(rows) marks,
    and count the rows flagged and the draw_indices calls in this process."""
    counts = {"flagged": 0, "drawn": 0}
    bounded = mc._bounded_indices

    def flagging(words, n, m, out):
        idx, flagged = bounded(words, n, m, out)
        flagged |= extra(words.shape[0])
        counts["flagged"] += int(flagged.sum())
        return idx, flagged

    def counting(n, m, rng):
        counts["drawn"] += 1
        return draw_indices(n, m, rng)

    monkeypatch.setattr(mc, "_bounded_indices", flagging)
    monkeypatch.setattr(mc, "draw_indices", counting)
    return counts


class TestIndexFallback:
    """Every study takes each unit's indices from its raw words, and draws
    with draw_indices exactly the units that pass flags, so the reports do
    not depend on which units fall back."""

    studies = [
        lambda: coverage_study(NORMAL, 20, 20, PivotKind.G1, 300, 0.05, seed=4),
        lambda: coverage_study(parse_dist("binomial:10,0.1"), 3, 3, PivotKind.T2, 200, 0.05,
                               sided="two", seed=5),  # redraws most rows
        lambda: kolmogorov_distance(PivotKind.G2, parse_dist("poisson:1"), 5, 7, 300, seed=6),
        lambda: kolmogorov_distance(PivotKind.T1, parse_dist("beta:2,3"), 9, 24, 300, seed=7),
        lambda: proportion_study(parse_dist("binomial:10,0.1"), 3, PivotKind.T2, outer_reps=20,
                                 inner_reps=40, seed=9),  # redraws rows of many outers
    ]

    @pytest.mark.parametrize("extra", [lambda rows: np.zeros(rows, dtype=bool),
                                       lambda rows: np.arange(rows) % 3 == 1],
                             ids=["pass-flags", "every-third-row"])
    def test_only_flagged_rows_call_draw_indices(self, extra, monkeypatch):
        want = [study() for study in self.studies]
        counts = _flag_also(monkeypatch, extra)
        assert [study() for study in self.studies] == want
        assert counts["drawn"] == counts["flagged"]

    @pytest.mark.parametrize("threads,ns", [(1, (3, 20)), (2, (3,))])
    def test_every_row_flagged_gives_recorded_reports(self, threads, ns, monkeypatch):
        recorded = json.loads(RECORDED.read_text())
        counts = _flag_also(monkeypatch, lambda rows: np.ones(rows, dtype=bool))
        with _in_workers() as pools:
            got = _grid_reports(ns, threads)
        assert bool(pools) == (threads > 1)
        assert threads > 1 or counts["flagged"] > 0  # proportion draws are counted too
        assert got == {cell: recorded[cell] for cell in got}, NUMPY_NOTE
