"""Tests for the Monte Carlo harness: sampling, coverage, proportions, KS."""
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randpivot.mc as mc
from randpivot import (BadParams, DegenerateWeights, DistributionSpec, PivotKind,
                       RandPivotError, TooFewObservations, ZeroScale, ci_mu, coverage_study,
                       critical_z, draw_weights, gen_sample, kolmogorov_distance,
                       parse_dist, pivot, proportion_study, stream,
                       student_t_cutoff)
from randpivot._normal import norm_cdf
from randpivot.mc import to_csv, to_json

NORMAL = DistributionSpec("normal", (0.0, 1.0))


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

    def test_scipy_stats_loaded_only_on_use(self):
        code = ("import sys, randpivot, randpivot.cli\n"
                "assert 'scipy.stats' not in sys.modules\n"
                "print(randpivot.student_t_cutoff(0.05, 19))\n"
                "assert 'scipy.stats' in sys.modules\n")
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
        b = coverage_study(NORMAL, 15, 15, PivotKind.G1, reps=300, alpha=0.05, seed=9,
                           threads=3)
        assert a == b

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
        b = proportion_study(NORMAL, 12, PivotKind.G1, threads=2, **kw)
        assert a == b

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

    def test_deterministic_across_threads(self):
        a = kolmogorov_distance(PivotKind.G1, NORMAL, 30, 30, reps=4000, seed=29)
        b = kolmogorov_distance(PivotKind.G1, NORMAL, 30, 30, reps=4000, seed=29, threads=3)
        assert a == b


class TestSerialization:
    def test_json_roundtrip_and_stability(self):
        report = coverage_study(NORMAL, 10, 10, PivotKind.G1, reps=50, seed=30,
                                alpha=0.05)
        s = to_json(report)
        payload = json.loads(s)
        assert payload["schema_version"] == 1
        assert payload["kind"] == "coverage"
        assert payload["coverage"] == report.coverage
        assert "stderr" in payload and "seed" in payload
        assert to_json(report) == s  # stable

    def test_csv_one_row_per_report(self):
        r1 = coverage_study(NORMAL, 10, 10, PivotKind.G1, reps=50, seed=31, alpha=0.05)
        r2 = coverage_study(NORMAL, 12, 12, PivotKind.G1, reps=50, seed=32, alpha=0.05)
        text = to_csv([r1, r2])
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("schema_version,kind,dist")

    def test_stderr_formula(self):
        report = coverage_study(NORMAL, 10, 10, PivotKind.G1, reps=100, seed=33, alpha=0.05)
        p = report.coverage
        assert report.stderr == pytest.approx(math.sqrt(p * (1 - p) / 100), rel=1e-12)


def _replay(d, n, kind, reps, seed, alpha=0.05):
    """Replications through the single-sample API, as coverage_study keys them.

    Returns the pivot values, the per-sidedness (hits, classical hits) and
    the redraw count.  G-pivots are covered via ci_mu(...).contains(mu).
    """
    mu = d.true_mean
    events = {"upper": lambda v, c: v <= c, "lower": lambda v, c: v >= -c,
              "two": lambda v, c: abs(v) <= c}
    hits = {sided: [0, 0] for sided in events}
    values, redraws = [], 0
    for r in range(reps):
        for attempt in range(mc.MAX_REDRAWS):
            rng = stream(seed, r, attempt)
            x = gen_sample(d, n, rng)
            w = draw_weights(n, n, rng)
            try:
                val = pivot(kind, x, w, mu=mu if kind.needs_mu else None)
                cis = {sided: ci_mu(x, w, alpha, variant=kind.value, sided=sided)
                       for sided in events} if kind.needs_mu else None
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
        for sided, event in events.items():
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

    @pytest.mark.parametrize("kind", [PivotKind.T2, PivotKind.G2])
    def test_one_redraw_budget(self, kind, monkeypatch):
        # n = m = 2: weights (1,1) are degenerate and (2,0), (0,2) leave a
        # one-point sub-sample, so every draw has zero sub-sample scale.
        # Each study gives up after MAX_REDRAWS draws of its one row.
        calls = []

        def counting_stream(*key):
            calls.append(key)
            return stream(*key)

        monkeypatch.setattr(mc, "stream", counting_stream)
        studies = [
            lambda: coverage_study(NORMAL, 2, 2, kind, reps=1, alpha=0.05),
            lambda: kolmogorov_distance(kind, NORMAL, 2, 2, reps=1),
            lambda: proportion_study(NORMAL, 2, kind, outer_reps=1, inner_reps=1),
        ]
        for study in studies:
            calls.clear()
            with pytest.raises(RandPivotError):
                study()
            assert len(calls) == mc.MAX_REDRAWS

    @pytest.mark.parametrize("n,m,error", [(1, 1, TooFewObservations), (0, 3, TooFewObservations),
                                           (-3, 3, TooFewObservations), (5, 0, ValueError),
                                           (5, -2, ValueError)])
    def test_sizes_checked_before_any_draw(self, n, m, error, monkeypatch):
        calls = []
        monkeypatch.setattr(mc, "stream", lambda *key: calls.append(key))
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

    def test_proportion_default_m_is_checked_as_n(self):
        with pytest.raises(TooFewObservations):
            proportion_study(NORMAL, 1, PivotKind.T1, outer_reps=2, inner_reps=3)


FAMILIES = ["normal:0,1", "exponential:1", "lognormal_std:0,1", "poisson:3",
            "binomial:10,0.5", "beta:2,3", "uniform:0,1"]


def _outcome(study):
    """A study's report, or the type of the error it raised.

    The message is left out: coverage and kdist count the failing rows of
    the first failing block, and the blocks follow the split into chunks.
    """
    try:
        return study()
    except RandPivotError as exc:
        return type(exc)


class TestThreadIndependence:
    """threads=2 gives the report threads=1 gives, for drawn configurations.

    n = 2 with T2 or G2 always exhausts the redraw budget, so the type of
    the error a study raises is compared too.
    """

    config = dict(spec=st.sampled_from(FAMILIES), n=st.integers(2, 30),
                  kind=st.sampled_from(list(PivotKind)), seed=st.integers(0, 2**32 - 1))

    @settings(max_examples=10, deadline=None)
    @given(reps=st.integers(2, 40), **config)
    @example(spec="normal:0,1", n=2, kind=PivotKind.T2, reps=5, seed=0)
    def test_coverage(self, spec, n, kind, reps, seed):
        d = parse_dist(spec)
        outcomes = [_outcome(lambda: coverage_study(d, n, n, kind, reps, 0.05, seed=seed,
                                                    threads=threads))
                    for threads in (1, 2)]
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=10, deadline=None)
    @given(outer=st.integers(2, 6), inner=st.integers(2, 30), **config)
    @example(spec="normal:0,1", n=2, kind=PivotKind.G2, outer=3, inner=4, seed=0)
    def test_proportion(self, spec, n, kind, outer, inner, seed):
        d = parse_dist(spec)
        outcomes = [_outcome(lambda: proportion_study(d, n, kind, outer_reps=outer,
                                                      inner_reps=inner, seed=seed,
                                                      threads=threads))
                    for threads in (1, 2)]
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=10, deadline=None)
    @given(reps=st.integers(2, 40), **config)
    @example(spec="normal:0,1", n=2, kind=PivotKind.T2, reps=5, seed=0)
    def test_kdist(self, spec, n, kind, reps, seed):
        d = parse_dist(spec)
        outcomes = [_outcome(lambda: kolmogorov_distance(kind, d, n, n, reps, seed=seed,
                                                         threads=threads))
                    for threads in (1, 2)]
        assert outcomes[0] == outcomes[1]
