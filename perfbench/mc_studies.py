"""Workload ``mc_studies``: seeded Monte Carlo studies, in-process, threads=1.

Light op: one scalar round, i.e. ``coverage_study`` on three cells
(normal:0,1 n=20 g1 takes the ci_mu route; exponential:1 n=20 t2 the
pivot-event route; poisson:1 n=5 g2 redraws about 16 % of replications)
plus ``kolmogorov_distance`` on normal:0,1 n=100 g1, each at REPS
replications.  These run the scalar per-replication path.
Heavy op: one ``proportion_study`` cell, exponential:1 n=20 g1, which
runs the batched kernel.  No bigdata, no file I/O.
"""
from __future__ import annotations

import importlib
import os
import time

import numpy as np

from harness import (Calibrator, Config, OpLog, Outcome, Recorder, closed_loop, finite,
                     fresh_import, import_probe, latency_lines, layer_metrics, median,
                     peak_rss_mib, per_call_lines, replay_pair, timed_setups)

ALPHA = 0.05
COVERAGE_CELLS = (("normal:0,1", 20, "g1"), ("exponential:1", 20, "t2"),
                  ("poisson:1", 5, "g2"))
KDIST_CELL = ("normal:0,1", 100, "g1")
PROPORTION_CELL = ("exponential:1", 20, "g1")
ROUNDS_PER_PROPORTION = 2


def sizes(smoke: bool) -> dict[str, int]:
    if smoke:
        return {"reps": 10, "outer": 10, "inner": 100, "pool_reps": 200}
    return {"reps": 100, "outer": 500, "inner": 500, "pool_reps": 2000}


def study_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def run(cfg: Config) -> Outcome:
    rp = importlib.import_module("randpivot")
    mc = rp.mc
    sz = sizes(cfg.smoke)
    cells = [(mc.parse_dist(d), n, rp.PivotKind(k)) for d, n, k in COVERAGE_CELLS]
    kd = (mc.parse_dist(KDIST_CELL[0]), KDIST_CELL[1], rp.PivotKind(KDIST_CELL[2]))
    pd = (mc.parse_dist(PROPORTION_CELL[0]), PROPORTION_CELL[1], rp.PivotKind(PROPORTION_CELL[2]))

    def coverage(cell, reps, seed, threads=1):
        d, n, kind = cell
        return mc.coverage_study(d, n, n, kind, reps, ALPHA, seed=seed, threads=threads)

    def kdist(reps, seed):
        d, n, kind = kd
        return mc.kolmogorov_distance(kind, d, n, n, reps, seed=seed)

    def proportion(outer, inner, seed):
        d, n, kind = pd
        return mc.proportion_study(d, n, kind, outer_reps=outer, inner_reps=inner,
                                   alpha=ALPHA, seed=seed)

    def warm_up():
        for cell in cells:
            coverage(cell, 5, 0)
        kdist(5, 0)
        proportion(2, 50, 0)

    def set_up():
        # What a study session pays before its first result: a fresh
        # interpreter importing randpivot, then one small call per study.
        fresh_import(cfg)
        warm_up()

    setup_s, _ = timed_setups(set_up)

    log = OpLog(None if cfg.trace else Calibrator())

    def check_coverage(r):
        bad = []
        if r.reps != sz["reps"] or r.degenerate_count < 0:
            bad.append(f"bad counts reps={r.reps} degenerate={r.degenerate_count}")
        if not (finite(r.coverage, r.classical_coverage)
                and 0.0 <= r.coverage <= 1.0 and 0.0 <= r.classical_coverage <= 1.0):
            bad.append(f"coverage outside [0, 1]: {r.coverage}, {r.classical_coverage}")
        return bad

    def check_kdist(v):
        return [] if finite(v) and 0.0 <= v <= 1.0 else [f"distance {v} outside [0, 1]"]

    def check_proportion(r):
        ok = finite(r.proportion, r.classical_proportion) and \
            0.0 <= r.proportion <= 1.0 and 0.0 <= r.classical_proportion <= 1.0
        return [] if ok else [f"proportion outside [0, 1]: {r.proportion}"]

    # Per-study wall and work, for the reps/s figures in the summary.
    work = {"coverage": [0.0, 0], "kdist": [0.0, 0], "proportion": [0.0, 0]}
    redraws = [0] * len(cells)

    def timed(kind, units, fn):
        t = time.perf_counter()
        out = fn()
        work[kind][0] += time.perf_counter() - t
        work[kind][1] += units
        return out

    def scalar_round(seed):
        reports = []
        for c, cell in enumerate(cells):
            r = timed("coverage", sz["reps"], lambda: coverage(cell, sz["reps"], seed))
            bad = check_coverage(r)
            if bad:
                raise ValueError("; ".join(bad))
            redraws[c] += r.degenerate_count
            reports.append(r)
        v = timed("kdist", sz["reps"], lambda: kdist(sz["reps"], seed))
        bad = check_kdist(v)
        if bad:
            raise ValueError("; ".join(bad))
        return reports, v

    def proportion_op(seed):
        return timed("proportion", sz["outer"] * sz["inner"],
                     lambda: proportion(sz["outer"], sz["inner"], seed))

    first: dict[str, object] = {}
    counter = [0]

    def light():
        seed = study_seed(cfg.seed, counter[0])
        counter[0] += 1
        out = log.run("scalar_round", lambda: scalar_round(seed), lambda o: [])
        first.setdefault("round", (seed, out))

    def heavy():
        seed = study_seed(cfg.seed, counter[0])
        counter[0] += 1
        out = log.run("proportion", lambda: proportion_op(seed), check_proportion)
        first.setdefault("proportion", (seed, out))

    def verify_repeats():
        # Exact counts and reports repeat at the same seed.
        seed, out = first["round"]
        log.run("verify", lambda: scalar_round(seed),
                lambda again: [] if again == out else ["scalar round did not repeat"])
        seed, out = first["proportion"]
        log.run("verify", lambda: proportion(sz["outer"], sz["inner"], seed),
                lambda again: [] if again == out else ["proportion did not repeat"])

    def verify_threads():
        # threads=nproc must give the threads=1 report; the walls give the
        # pool speed-up reported by the traced run.
        nproc = len(os.sched_getaffinity(0))
        seed = study_seed(cfg.seed, 10**6)
        walls = {}

        def both():
            reports = []
            for threads in (1, nproc):
                t = time.perf_counter()
                reports.append(coverage(cells[2], sz["pool_reps"], seed, threads))
                walls[threads] = time.perf_counter() - t
            return reports

        reports = log.run("verify", both, lambda rs: [] if rs[0] == rs[1] else
                          [f"threads={nproc} report differs from threads=1"])
        return nproc, walls, reports

    if not cfg.trace:
        rotation = [light] * ROUNDS_PER_PROPORTION + [heavy]
        closed_loop(rotation, cfg.seconds)
        lat = log.latencies
        e2e = {
            "setup_s": (setup_s, "s"),
            "light_op_p50_cal": (median(log.calibrated["scalar_round"]), "cal"),
            "heavy_op_p50_cal": (median(log.calibrated["proportion"]), "cal"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }
        summary = latency_lines(log, "scalar_round", "proportion") + [
            f"scalar_round = 3 coverage cells + kdist, {sz['reps']} reps each; "
            f"proportion = {sz['outer']}x{sz['inner']}",
            f"coverage.reps_per_s = {work['coverage'][1] / work['coverage'][0]:.1f} replications/s "
            f"(3 cells, {work['coverage'][1]} reps)",
            f"kdist.reps_per_s = {work['kdist'][1] / work['kdist'][0]:.1f} replications/s "
            f"({work['kdist'][1]} reps)",
            f"proportion.reps_per_s = {work['proportion'][1] / work['proportion'][0]:.1f} "
            f"inner replications/s ({work['proportion'][1]} inner reps)",
        ]
        rounds = len(lat["scalar_round"])
        for (d, n, k), dr in zip(COVERAGE_CELLS, redraws):
            summary.append(f"mc.redraw_ratio[{d} n={n} {k}] = {dr}/{rounds * sz['reps']} "
                           f"= {dr / (rounds * sz['reps']):.4f}")
        verify_repeats()
        verify_threads()
        return Outcome(e2e, {}, summary, log.attempted, log.failed, log.problems)

    # Traced run: replay the studies' inner loops through the public API.
    rec = Recorder()
    z = rp.critical_z(ALPHA)
    replay_cells = cells + [kd]
    replay_seed = study_seed(cfg.seed, 2 * 10**6)
    tallies: dict[tuple[int, int, bool], tuple[bool, int]] = {}

    def replicate(c, r, span, traced):
        d, n, kind = replay_cells[c]
        mu = d.true_mean
        for attempt in range(100):
            with span("rng.stream"):
                g = rp.stream(replay_seed, r, attempt)
            with span("mc.gen_sample"):
                x = mc.gen_sample(d, n, g)
            with span("weights.draw_weights"):
                w = rp.draw_weights(n, n, g)
            with span("weights.weight_stats"):
                rp.weight_stats(w)
            try:
                if kind.needs_mu and c < len(cells):
                    with span("intervals.ci_mu"):
                        hit = rp.ci_mu(x, w, ALPHA, variant=kind.value, sided="upper").contains(mu)
                else:
                    with span("pivots.pivot"):
                        hit = rp.pivot(kind, x, w, mu=mu if kind.needs_mu else None) <= z
            except (rp.DegenerateWeights, rp.ZeroScale):
                continue
            tallies[(c, r, traced)] = (bool(hit), attempt)
            return
        raise RuntimeError(f"replay cell {c} replication {r}: too many redraws")

    def replay_op(i, recorder):
        span = recorder.span
        slot = i % (len(replay_cells) + 1)
        if slot == len(replay_cells):
            with span("mc.proportion_study"):
                proportion(1, sz["inner"], replay_seed + i)
        else:
            replicate(slot, i // (len(replay_cells) + 1), span, recorder is rec)

    untraced_s, traced_s, ops = replay_pair(replay_op, len(replay_cells) + 1, rec, cfg.seconds)
    nproc, walls, pool_reports = verify_threads()

    # The replay must reproduce coverage_study: same hits, same redraws.
    problems = []
    for c, cell in enumerate(cells):
        reps = 1 + max(r for (cc, r, _) in tallies if cc == c)
        rep = coverage(cell, reps, replay_seed)
        for traced in (False, True):
            hits = sum(tallies[(c, r, traced)][0] for r in range(reps))
            red = sum(tallies[(c, r, traced)][1] for r in range(reps))
            if rep.coverage != hits / reps or rep.degenerate_count != red:
                problems.append(f"replay of cell {c} (traced={traced}) does not "
                                f"reproduce coverage_study")
    per_layer = layer_metrics(rec, untraced_s, traced_s, ops)
    import_metrics, import_line = import_probe(cfg)
    per_layer.update(import_metrics)
    summary = [f"replayed {ops} ops (replications of 4 cells and proportion "
               f"1x{sz['inner']} calls)"]
    if pool_reports is not None:  # else the failed check is counted in log
        pool_deg = pool_reports[0].degenerate_count
        per_layer["mc.redraw_ratio"] = (pool_deg / sz["pool_reps"], "ratio")
        per_layer["mc.pool_speedup"] = (walls[1] / walls[nproc], "ratio")
        summary += [f"mc.redraw_ratio base: {pool_deg} redraws / {sz['pool_reps']} reps "
                    f"of poisson:1 n=5 g2",
                    f"mc.pool_speedup base: threads=1 {walls[1]:.3f} s / threads={nproc} "
                    f"{walls[nproc]:.3f} s"]
    summary += per_call_lines(rec) + [import_line]
    rec.write(cfg.workdir / "spans-mc_studies.jsonl")
    return Outcome({}, per_layer, summary, log.attempted + 1, log.failed + bool(problems),
                   log.problems + problems)
