"""Workload ``bigdata_queries``: interval queries on a dataset too large to scan.

Set-up writes N lognormal(0, 1) records in the documented binary layout
(6e7 records, 458 MiB, more than 4x the 105 MiB LLC of the reference
machine), computes the exact full-data mean and F_n(1) while writing, and
reads the whole file once.  Page-cache dropping is not available, so
queries are measured from a warm page cache and every run starts in that
state.  The dataset is opened once; queries run in-process:

- light op, the sparse class: ``loglog`` policy (m ~ 22 k), alternating
  ``bigdata_ci_mean`` with ``bigdata_ci_edf`` at x = 1, the lognormal median;
- heavy op, the dense class: ``bigdata_ci_mean`` under the CLI's default
  ``power-delta:0.25`` (m ~ 6.8e5), which touches most of the file.
"""
from __future__ import annotations

import importlib
import math
import os
import struct

import numpy as np

from harness import (Calibrator, Config, OpLog, Outcome, Recorder, closed_loop, finite,
                     import_probe, interval_problems, latency_lines, layer_metrics, median,
                     peak_rss_mib, per_call_lines, percentile, replay_pair, timed_setups)

ALPHA = 0.05
X_EDF = 1.0
SPARSE_PER_DENSE = 4
PAGE = 4096
CHUNK = 2_000_000
COUNTED_QUERIES = 4  # per class: the fixed base of the exact I/O counts


def dataset_records(smoke: bool) -> int:
    return 100_000 if smoke else 60_000_000


def write_inputs(cfg: Config, bigdata, n: int) -> dict:
    """Write the dataset chunk by chunk (bounded memory), then read it once."""
    path = cfg.workdir / "bigdata.rpv"
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 7])))
    sums, below = [], 0
    with open(path, "wb") as f:
        f.write(bigdata.MAGIC + struct.pack("<I", bigdata.VERSION) + struct.pack("<Q", n))
        for lo in range(0, n, CHUNK):
            v = gen.lognormal(0.0, 1.0, min(CHUNK, n - lo))
            sums.append(float(v.sum()))
            below += int(np.count_nonzero(v <= X_EDF))
            f.write(v.astype("<f8").tobytes())
        # Flushed here so that write-back does not run during the queries.
        f.flush()
        os.fsync(f.fileno())
    with open(path, "rb") as f:
        while f.read(1 << 24):
            pass
    return {"path": path, "mean": math.fsum(sums) / n, "f_x": below / n,
            "bytes": path.stat().st_size}


def run(cfg: Config) -> Outcome:
    rp = importlib.import_module("randpivot")
    bigdata = rp.bigdata
    n = dataset_records(cfg.smoke)
    setup_s, data = timed_setups(lambda: write_inputs(cfg, bigdata, n))
    try:
        return _measure(cfg, rp, n, setup_s, data)
    finally:
        data["path"].unlink(missing_ok=True)


def _measure(cfg, rp, n, setup_s, data) -> Outcome:
    bigdata = rp.bigdata
    rec = Recorder()
    with rec.span("bigdata.open_dataset"):
        h = bigdata.open_dataset(data["path"])
    sparse, dense = rp.LogLog(), rp.PowerDelta(0.25)
    qseed = int(np.random.SeedSequence([cfg.seed, 11]).generate_state(1)[0])
    log = OpLog(None if cfg.trace else Calibrator())

    def query(stat, policy, i):
        g = rp.stream(qseed, i)
        if stat == "mean":
            return bigdata.bigdata_ci_mean(h, ALPHA, policy, g)
        return bigdata.bigdata_ci_edf(h, X_EDF, ALPHA, policy, g)

    def check(stat, policy):
        target = data["mean"] if stat == "mean" else data["f_x"]

        def f(out):
            ci, rep = out
            bad = interval_problems(ci.lower, ci.center, ci.upper, ci.half_width,
                                    unit=stat == "edf")
            if not finite(rep.rate_bound):
                bad.append("non-finite rate bound")
            if rep.m != rp.subsample_size(n, policy):
                bad.append(f"m={rep.m} != subsample_size")
            if rep.records_read != rep.distinct_records or rep.bytes_read < 8 * rep.records_read:
                bad.append(f"read counts inconsistent: {rep.to_dict()}")
            if not abs(ci.center - target) <= 10.0 * ci.half_width:
                bad.append(f"center {ci.center} more than 10 half-widths from {target}")
            return bad
        return f

    reports = {"sparse": [], "dense": []}
    first = {}
    counter = [0]

    def op(cls, stat, policy):
        i = counter[0]
        counter[0] += 1
        out = log.run(cls, lambda: query(stat, policy, i), check(stat, policy))
        if out is not None:
            reports[cls].append(out[1])
        first.setdefault((cls, stat), (i, out))

    if not cfg.trace:
        rotation = [lambda: op("dense", "mean", dense)]
        for k in range(SPARSE_PER_DENSE):
            stat = "mean" if k % 2 == 0 else "edf"
            rotation.append(lambda stat=stat: op("sparse", stat, sparse))
        closed_loop(rotation, cfg.seconds)
        lat = log.latencies
        e2e = {"setup_s": (setup_s, "s"),
               "light_op_p50_cal": (median(log.calibrated["sparse"]), "cal"),
               "heavy_op_p50_cal": (median(log.calibrated["dense"]), "cal"),
               "peak_rss_mib": (peak_rss_mib(), "MiB")}
        summary = latency_lines(log, "sparse", "dense") + [
            f"bigdata.sparse_p50_ms = {median(lat['sparse']) * 1e3:.3f} ms "
            f"({len(lat['sparse'])} queries, loglog)",
            f"bigdata.sparse_p90_ms = {percentile(lat['sparse'], 90) * 1e3:.3f} ms "
            f"({len(lat['sparse'])} queries)",
            f"bigdata.dense_p50_ms = {median(lat['dense']) * 1e3:.3f} ms "
            f"({len(lat['dense'])} queries, power-delta:0.25)",
        ]
        for cls, reps in reports.items():
            if reps:
                calls = np.mean([r.read_calls for r in reps])
                fraction = np.mean([r.bytes_read for r in reps]) / (8 * n)
                summary.append(f"{cls}: m={reps[0].m}, read_calls/query={calls:.1f}, "
                               f"bytes_read/data bytes={fraction:.4f}")
        # Exact counts and intervals repeat at the same seed.
        for (cls, stat), (i, out) in sorted(first.items()):
            policy = sparse if cls == "sparse" else dense
            log.run("verify", lambda: query(stat, policy, i),
                    lambda again, out=out: [] if again == out else
                    [f"{cls} {stat} query {i} did not repeat"])
        return Outcome(e2e, {}, summary, log.attempted, log.failed, log.problems,
                       {"dataset_bytes": data["bytes"]})

    # Traced run: replay each query's steps through the public API.
    rseed = qseed + 1
    replayed = {}

    def replay(i, recorder):
        span = recorder.span
        slot = i % (SPARSE_PER_DENSE + 1)
        cls, policy = ("dense", dense) if slot == 0 else ("sparse", sparse)
        stat = "mean" if slot % 2 == 0 else "edf"
        with span("rng.stream"):
            g = rp.stream(rseed, i)
        with span("intervals.subsample_size"):
            m = rp.subsample_size(n, policy)
        with span(f"bigdata.draw_index_sample.{cls}"):
            sample = bigdata.draw_index_sample(n, m, g)
        with span(f"bigdata.read_records.{cls}"):
            values, io = h.read_records(sample.indices)
        with span(f"weights.stats_from_nonzero.{cls}"):
            ws = rp.weights.stats_from_nonzero(sample.counts, n, m)
        if stat == "mean":
            with span(f"pivots.randomized_stats_from_nonzero.{cls}"):
                rmean, rvar = rp.pivots.randomized_stats_from_nonzero(values, sample.counts, m)
            with span("intervals.ci_xbar"):
                ci = rp.ci_xbar(rp.RandomizedStats(rmean=rmean, rvar=rvar), ws, ALPHA, n=n, m=m)
        else:
            f_mn = float((sample.counts * (values <= X_EDF)).sum()) / m
            with span("edf.ci_edf_from_stats"):
                ci = rp.edf.ci_edf_from_stats(f_mn, ws, X_EDF, ALPHA, n=n, m=m)
        if recorder is rec:
            replayed[i] = (cls, stat, policy, ci, io)

    untraced_s, traced_s, ops = replay_pair(replay, (SPARSE_PER_DENSE + 1) * COUNTED_QUERIES,
                                            rec, cfg.seconds)

    # The replay must reproduce the public calls bitwise for the same seed.
    problems = []
    for i in range(3):
        cls, stat, policy, ci, _ = replayed[i]
        g = rp.stream(rseed, i)
        if stat == "mean":
            ci2, _ = bigdata.bigdata_ci_mean(h, ALPHA, policy, g)
        else:
            ci2, _ = bigdata.bigdata_ci_edf(h, X_EDF, ALPHA, policy, g)
        if ci2 != ci:
            problems.append(f"replayed {cls} {stat} query {i} differs from the public call")

    per_layer = layer_metrics(rec, untraced_s, traced_s, ops)
    import_metrics, import_line = import_probe(cfg)
    per_layer.update(import_metrics)
    # I/O counts over the first COUNTED_QUERIES queries of each class, so
    # they repeat exactly at the same seed.
    file_pages = math.ceil((bigdata.HEADER_SIZE + bigdata.RECORD_SIZE * n) / PAGE)
    summary = [f"replayed {ops} queries ({SPARSE_PER_DENSE} sparse per dense)"]
    for cls in ("sparse", "dense"):
        queries = [(i, q) for i, q in sorted(replayed.items()) if q[0] == cls][:COUNTED_QUERIES]
        ios = [q[4] for _, q in queries]
        pages = 0
        for i, (_, _, policy, _, _) in queries:
            idx = bigdata.draw_index_sample(n, rp.subsample_size(n, policy),
                                            rp.stream(rseed, i)).indices
            pages += np.unique((bigdata.HEADER_SIZE + idx * bigdata.RECORD_SIZE) // PAGE).size
        calls = sum(io.read_calls for io in ios)
        nbytes = sum(io.bytes_read for io in ios)
        records = sum(io.records_read for io in ios)
        k = len(ios)
        per_layer[f"bigdata.read_calls.{cls}"] = (calls / k, "count")
        per_layer[f"bigdata.file_fraction.{cls}"] = (nbytes / (k * bigdata.RECORD_SIZE * n), "ratio")
        per_layer[f"bigdata.pages_touched_fraction.{cls}"] = (pages / (k * file_pages), "ratio")
        per_layer[f"bigdata.useful_byte_ratio.{cls}"] = (
            bigdata.RECORD_SIZE * records / nbytes, "ratio")
        summary.append(
            f"{cls}, first {k} queries: read_calls={calls}, bytes_read={nbytes} of "
            f"{k} x {bigdata.RECORD_SIZE * n} data bytes, records_read={records}, "
            f"pages touched={pages} of {k} x {file_pages} file pages")
    summary += per_call_lines(rec, "ms") + [import_line]
    rec.write(cfg.workdir / "spans-bigdata_queries.jsonl")
    return Outcome({}, per_layer, summary, 1, int(bool(problems)), problems,
                   {"dataset_bytes": data["bytes"]})
