"""Workload ``cli_session``: CLI commands run one after another as
subprocesses (``python -m randpivot.cli ... --no-timestamp``), each paying
interpreter start-up plus ``import randpivot``.

Heavy op: ``ingest`` of a CSV generated during set-up (10^6 rows), which
exercises the write side of bigdata: CSV parsing, then write_dataset.
Light ops: ``sizing``, ``rate``, ``bound``, ``ci-mean`` and ``ci-edf`` on
a 30-row CSV, then ``ci-bigdata`` (mean and edf) on the file the session
just ingested.  Every command's stdout must be byte-identical to the same
command run in-process with the same seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import subprocess
import sys

import numpy as np

from harness import (Calibrator, Config, OpLog, Outcome, Recorder, closed_loop, finite,
                     import_probe, interval_problems, latency_lines, layer_metrics, median,
                     per_call_lines, python_env, replay_pair, timed_setups)

X_EDF = 1.0
POLICY = "power-delta:0.25"  # the ci-bigdata default


def csv_rows(smoke: bool) -> int:
    return 10_000 if smoke else 1_000_000


def write_inputs(cfg: Config, rows: int) -> dict:
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 3])))
    big = gen.lognormal(0.0, 1.0, rows)
    small = gen.normal(5.0, 2.0, 30)
    big_csv, small_csv = cfg.workdir / "big.csv", cfg.workdir / "small.csv"
    big_csv.write_text("\n".join(map(repr, big.tolist())) + "\n")
    small_csv.write_text("\n".join(map(repr, small.tolist())) + "\n")
    return {"big_csv": big_csv, "small_csv": small_csv, "mean": math.fsum(big) / rows,
            "f_x": int(np.count_nonzero(big <= X_EDF)) / rows}


def commands(cfg: Config, data: dict, dataset: str) -> tuple[list[str], list[list[str]]]:
    seed = str(int(np.random.SeedSequence([cfg.seed, 5]).generate_state(1)[0]))
    ingest = ["ingest", "--csv", str(data["big_csv"]), "--out", dataset]
    bigdata_mean = ["ci-bigdata", "--data", dataset, "--stat", "mean", "--seed", seed]
    if cfg.smoke:
        short = [bigdata_mean]
    else:
        small = str(data["small_csv"])
        short = [
            ["sizing", "--n", "1000000", "--policy", "loglog"],
            ["rate", "--n", "1000", "--m", "1000", "--kind", "d"],
            ["bound", "--n", "30", "--m", "30", "--delta", "0.5", "--eps", "0.5",
             "--eps1", "0.1", "--eps2", "0.1", "--rho3", "2", "--p-s2", "0.01"],
            ["ci-mean", "--data", small, "--seed", seed],
            ["ci-edf", "--data", small, "--x", "5", "--seed", seed],
            bigdata_mean,
            ["ci-bigdata", "--data", dataset, "--stat", "edf", "--x", str(X_EDF),
             "--seed", seed],
        ]
    tail = ["--no-timestamp"]
    return ingest + tail, [c + tail for c in short]


def run(cfg: Config) -> Outcome:
    rp = importlib.import_module("randpivot")
    rows = csv_rows(cfg.smoke)
    setup_s, data = timed_setups(lambda: write_inputs(cfg, rows))
    dataset = cfg.workdir / "session.rpv"
    try:
        return _measure(cfg, rp, rows, setup_s, data, str(dataset))
    finally:
        for p in (dataset, data["big_csv"], data["small_csv"]):
            p.unlink(missing_ok=True)


def in_process(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _measure(cfg, rp, rows, setup_s, data, dataset) -> Outcome:
    cli = importlib.import_module("randpivot.cli")
    ingest, short = commands(cfg, data, dataset)

    # Reference outputs: the same commands in-process, same seed.
    reference = {}
    for argv in [ingest] + short:
        code, out = in_process(cli, argv)
        if code != 0:
            raise RuntimeError(f"reference run of {argv[0]} exited {code}")
        reference[tuple(argv)] = out
    with open(dataset, "rb") as f:
        dataset_digest = hashlib.sha256(f.read()).hexdigest()
    m_expected = rp.subsample_size(rows, rp.parse_policy(POLICY))

    def check_payload(argv, stdout):
        bad = []
        if stdout != reference[tuple(argv)]:
            bad.append(f"{argv[0]} stdout differs from the same command in-process")
        p = json.loads(stdout)
        if argv[0] == "ingest":
            if p["count"] != rows:
                bad.append(f"ingest reported {p['count']} rows, generated {rows}")
            with open(dataset, "rb") as f:
                if hashlib.sha256(f.read()).hexdigest() != dataset_digest:
                    bad.append("ingested dataset differs from the reference")
        elif argv[0].startswith("ci-"):
            bad += interval_problems(p["lower"], p["center"], p["upper"], p["half_width"],
                                     unit=p["target"] == "edf_value")
        if argv[0] == "ci-bigdata":
            if p["report_m"] != m_expected:
                bad.append(f"m={p['report_m']} != {m_expected}")
            if p["report_records_read"] != p["report_distinct_records"] or \
                    p["report_bytes_read"] < 8 * p["report_records_read"]:
                bad.append("read counts inconsistent")
            target = data["mean"] if p["target"] == "sample_mean" else data["f_x"]
            if not abs(p["center"] - target) <= 10.0 * p["half_width"]:
                bad.append(f"center {p['center']} more than 10 half-widths from {target}")
        if argv[0] in ("bound", "rate") and not finite(*(v for v in p.values()
                                                        if isinstance(v, float))):
            bad.append(f"{argv[0]}: non-finite field")
        return bad

    env = python_env(cfg)
    log = OpLog(None if cfg.trace else
                Calibrator([sys.executable, "-c", "import numpy"], env))

    def command(cls, argv):
        def fn():
            return subprocess.run([sys.executable, "-m", "randpivot.cli", *argv],
                                  env=env, cwd=cfg.workdir, capture_output=True,
                                  text=True, timeout=120)

        def check(proc):
            if proc.returncode != 0:
                return [f"{argv[0]} exited {proc.returncode}: {proc.stderr[-300:]}"]
            return check_payload(argv, proc.stdout)

        return lambda: log.run(cls, fn, check)

    if not cfg.trace:
        # Ingest again after the first three short commands, so a run holds
        # about as many seconds of ingest as of short commands and the
        # heavy median rests on more than two or three samples.
        shorts = [command("short", a) for a in short]
        closed_loop([command("ingest", ingest)] + shorts[:3] +
                    [command("ingest", ingest)] + shorts[3:], cfg.seconds)
        lat = log.latencies
        peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        e2e = {"setup_s": (setup_s, "s"),
               "light_op_p50_cal": (median(log.calibrated["short"]), "cal"),
               "heavy_op_p50_cal": (median(log.calibrated["ingest"]), "cal"),
               "peak_rss_mib": (peak_mib, "MiB")}
        summary = latency_lines(log, "short", "ingest") + [
            f"cli.short_cmd_p50_s = {median(lat['short']):.4f} s ({len(lat['short'])} commands)",
            f"ingest.rows_per_s = {rows / median(lat['ingest']):.1f} rows/s "
            f"({rows} rows, {len(lat['ingest'])} ingests)",
            f"cli.peak_rss_mb = {peak_mib:.1f} MiB (max ru_maxrss over the session's children)",
        ]
        return Outcome(e2e, {}, summary, log.attempted, log.failed, log.problems)

    # Traced run: the ingest steps and every command in-process.
    rec = Recorder()
    problems = []
    replay_dataset = cfg.workdir / "replay.rpv"

    def replay(i, recorder):
        span = recorder.span
        slot = i % (len(short) + 1)
        if slot == 0:
            with span("bigdata.read_csv_column"):
                values = rp.bigdata.read_csv_column(data["big_csv"], 0)
            with span("bigdata.write_dataset"):
                h = rp.bigdata.write_dataset(values, replay_dataset)
            if h.count != rows:
                problems.append(f"replayed ingest wrote {h.count} of {rows} rows")
            return
        argv = short[slot - 1]
        with span(f"cli.main.{argv[0]}"):
            code, out = in_process(cli, argv)
        if code != 0 or out != reference[tuple(argv)]:
            problems.append(f"in-process {argv[0]} did not repeat its reference output")

    try:
        untraced_s, traced_s, ops = replay_pair(replay, len(short) + 1, rec, cfg.seconds)
    finally:
        replay_dataset.unlink(missing_ok=True)
    per_layer = layer_metrics(rec, untraced_s, traced_s, ops)
    import_metrics, import_line = import_probe(cfg)
    per_layer.update(import_metrics)
    summary = [f"replayed {ops} ops (ingest steps, then each command in-process)"]
    summary += per_call_lines(rec, "ms") + [import_line]
    rec.write(cfg.workdir / "spans-cli_session.jsonl")
    return Outcome({}, per_layer, summary, ops, int(bool(problems)), problems[:20])
