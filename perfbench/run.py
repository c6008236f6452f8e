"""randpivot benchmark: one closed-loop client per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {mc_studies,bigdata_queries,cli_session}
                             --seed N --seconds S --trace {0,1} [--smoke]

The client issues one operation, waits for its result, checks it, and
issues the next, for S seconds.  Every workload has a light op class (the
frequent one) and a heavy op class:

    workload          light op                          heavy op
    mc_studies        scalar round: coverage x3 + kdist proportion 500x500
    bigdata_queries   sparse query (loglog), mean/edf   dense query (power-delta:0.25)
    cli_session       short CLI command, with start-up  ingest of a 10^6-row CSV

``--trace 0`` prints the end-to-end metrics: set-up time (median of three
set-ups), peak RSS, and the median light and heavy op latency in ``cal``
units, i.e. op wall / wall of a fixed reference kernel timed around the
op (see harness.Calibrator); the raw walls in ms, and the figures named
per workload (reps/s, query percentiles, rows/s), are printed above the
result line.  ``--trace 1`` replays the
workload's operations through randpivot's public functions, once untraced
and once inside spans, and prints per-layer metrics.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  ``--smoke`` shrinks every input
so a run takes seconds; the benchmark's own tests use it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workloads and the metrics each run prints are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
TIME_UNITS = {"s", "ms", "us"}


def llc_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(args, outcome) -> dict:
    import numpy
    import scipy
    llc = llc_bytes()
    prov = {"workload": args.workload, "why": WORKLOADS[args.workload], "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "nproc": os.cpu_count(), "llc_bytes": llc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha()}
    if "dataset_bytes" in outcome.extra:
        prov["dataset_bytes"] = outcome.extra["dataset_bytes"]
        prov["dataset_to_llc"] = outcome.extra["dataset_bytes"] / llc if llc else None
        prov["page_cache"] = ("warm: set-up reads the whole file once; the file cache "
                              "is never dropped")
    return prov


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (ROOT / "src" / "randpivot" / "__init__.py").is_file():
        print(f"perfbench: no randpivot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness

    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    cfg = harness.Config(root=ROOT, workdir=workdir, seed=args.seed, seconds=args.seconds,
                         trace=bool(args.trace), smoke=args.smoke)
    module = __import__(args.workload)
    try:
        outcome = module.run(cfg)
    except Exception:
        traceback.print_exc()
        print("perfbench: the workload could not run; no result", file=sys.stderr)
        return 1

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        if name in outcome.per_layer or name in outcome.end_to_end:
            value, got_unit = (outcome.per_layer if args.trace else outcome.end_to_end)[name]
            if got_unit != unit:
                print(f"perfbench: {name} measured in {got_unit}, declared {unit}",
                      file=sys.stderr)
                return 1
        elif unit in TIME_UNITS or not args.trace:
            print(f"perfbench: metric {name} was not measured", file=sys.stderr)
            return 1
        else:
            value = 0.0  # a count or ratio of a layer this workload does not use
        metrics[name] = {"value": value, "unit": unit}

    prov = provenance(args, outcome)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for line in outcome.summary:
        print(line)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    failed_ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"failed_ratio = {outcome.failed}/{outcome.attempted} = {failed_ratio:.6g} "
          "failed ops / attempted ops")
    for problem in outcome.problems:
        print("problem: " + problem, file=sys.stderr)
    result = {"correct": outcome.failed == 0 and not outcome.problems,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    with open(workdir / f"result-{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump({"provenance": prov, "summary": outcome.summary, **result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
