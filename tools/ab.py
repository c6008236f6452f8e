"""Interleaved A/B timing of named randpivot calls, two revisions in one process.

Usage, from the root of a checkout:

    python3 tools/ab.py [--base REV] [--change REV] [--pairs N] [--seed S] [--smoke]

``--base`` (default HEAD) is extracted with ``git archive`` into a
temporary directory and imported under another package name; the package
imports its own modules relatively, so the renamed copy imports cleanly.
``--change`` is the working tree's ``src/randpivot`` by default, or another
revision extracted the same way.  Both copies live in this one process, so
they share the interpreter, numpy and the page cache.

Each pair runs one call on both sides with the same arguments and seed
(seed S + pair index), the base first in even pairs and the change first in
odd ones, after one untimed warm-up call per side.  Per call the script
prints each side's min and median wall in ms, the median's relative change,
the pairs the change won (ties count for neither) and the pairs whose
outputs were bitwise equal: intervals, report dicts and study reports are
compared with every float as its hex string.  The big-data calls query one
generated lognormal(0, 1) file (6e7 records, 458 MiB; 1e6 with --smoke),
written by the change side's own dataset writer, from a warm page cache.
``rstats`` is a dense mean query's randomized mean and variance on their
own: the two exact sums over the same 677,916 counts and lognormal values
in every pair.  ``ci_mu`` is a g2 interval on one in-memory sample of
SAMPLE_N lognormal values, with n weights drawn at each pair's seed: the
single-sample exact sums.  ``proportion500`` is the benchmark's heavy cell,
``exponential:1`` n = 20 G1 at 500 x 500 (60 x 500 with --smoke, still past
the two-thread split's cut), which runs split over two threads; the 200 x 200
``proportion`` call's units sit near the split's width cut instead.

Every call runs; the exit status is 1 if any pair's outputs differ.
``--smoke`` shrinks the file, the studies and the pair count so a run takes
well under 30 s.
"""
from __future__ import annotations

import argparse
import dataclasses
import enum
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/randpivot"
CHUNK = 2_000_000  # records written per chunk of the generated file
RECORDS, SMOKE_RECORDS = 60_000_000, 1_000_000  # records in the generated file
X_EDF = 1.0  # the lognormal(0, 1) median
DENSE_DRAWS = 681_732  # a power-delta:0.25 query's m on RECORDS records
SAMPLE_N = 100_000  # values in ci_mu's in-memory sample


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def load_revision(rev: str, side: str, into: Path) -> ModuleType:
    """Extract src/randpivot at rev and import it as randpivot_<side>_<sha>,
    so the same revision on both sides is two separate copies."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    name = f"randpivot_{side}_{sha[:12]}"
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha, PACKAGE))) as tar:
        tar.extractall(into / f"{name}.tree", filter="data")
    (into / f"{name}.tree" / PACKAGE).rename(into / name)
    sys.path.insert(0, str(into))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(into))


def load_worktree() -> ModuleType:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return importlib.import_module("randpivot")
    finally:
        sys.path.remove(str(ROOT / "src"))


def write_file(rp: ModuleType, path: Path, records: int, seed: int) -> None:
    """records lognormal(0, 1) values, a chunk at a time, through the
    package's own writer of the dataset format."""
    gen = np.random.Generator(np.random.PCG64(seed))
    rp.bigdata._write_records((gen.lognormal(0.0, 1.0, min(CHUNK, records - lo))
                               for lo in range(0, records, CHUNK)), path)
    with open(path, "rb") as f:  # one read, so every query starts from a warm page cache
        while f.read(1 << 24):
            pass


def dense_terms() -> tuple[np.ndarray, np.ndarray]:
    """The operands of a dense mean query's exact sums, counts and x: the
    counts of DENSE_DRAWS uniform draws from RECORDS records, one lognormal(0, 1)
    x per distinct record (677,916 of them), drawn once at seed 0."""
    gen = np.random.Generator(np.random.PCG64(0))
    counts = np.unique(gen.integers(0, RECORDS, DENSE_DRAWS), return_counts=True)[1]
    return counts, gen.lognormal(0.0, 1.0, counts.size)


def calls(smoke: bool) -> dict[str, Callable[[ModuleType, Any, int], Any]]:
    """Each named call as fn(package, dataset handle, seed) -> output."""
    reps, outer, wide = (2_000, 20, 60) if smoke else (20_000, 200, 500)
    counts, x = dense_terms()
    sample = np.random.Generator(np.random.PCG64(1)).lognormal(0.0, 1.0, SAMPLE_N)

    def query(stat: str, policy: str) -> Callable:
        def run(rp, h, seed):
            args = (0.05, rp.parse_policy(policy), rp.stream(seed))
            if stat == "mean":
                return rp.bigdata_ci_mean(h, *args)
            return rp.bigdata_ci_edf(h, X_EDF, *args)
        return run

    return {
        "sparse_mean": query("mean", "loglog"),
        "sparse_edf": query("edf", "loglog"),
        "dense_mean": query("mean", "power-delta:0.25"),
        "dense_edf": query("edf", "power-delta:0.25"),
        "rstats": lambda rp, h, seed: rp.pivots.randomized_stats_from_nonzero(
            x, counts, DENSE_DRAWS),
        "ci_mu": lambda rp, h, seed: rp.ci_mu(
            sample, rp.draw_weights(SAMPLE_N, SAMPLE_N, rp.stream(seed)), 0.05, variant="g2"),
        "coverage": lambda rp, h, seed: rp.coverage_study(
            rp.parse_dist("normal:0,1"), 20, 20, rp.PivotKind("g1"), reps, 0.05, seed=seed),
        "kdist": lambda rp, h, seed: rp.kolmogorov_distance(
            rp.PivotKind("g1"), rp.parse_dist("normal:0,1"), 100, 100, reps, seed=seed),
        "proportion": lambda rp, h, seed: rp.proportion_study(
            rp.parse_dist("exponential:1"), 20, rp.PivotKind("g1"), outer_reps=outer,
            inner_reps=outer, seed=seed),
        "proportion500": lambda rp, h, seed: rp.proportion_study(
            rp.parse_dist("exponential:1"), 20, rp.PivotKind("g1"), outer_reps=wide,
            inner_reps=500, seed=seed),
    }


def canonical(value: Any) -> Any:
    """A comparable form with every float as its hex string, so that equal
    means bitwise equal, and no class of either package in it."""
    if hasattr(value, "to_dict"):
        return canonical(value.to_dict())
    if dataclasses.is_dataclass(value):
        return canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [str(value.dtype), value.tobytes().hex()]
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    return value


def timed(fn: Callable, *args) -> tuple[float, Any]:
    start = time.perf_counter()
    out = fn(*args)
    return (time.perf_counter() - start) * 1e3, canonical(out)


def compare(name: str, fn: Callable, sides: list, pairs: int, seed: int) -> dict[str, Any]:
    """pairs interleaved (base, change) timings of one call, order alternating."""
    for rp, h in sides:
        fn(rp, h, seed)  # warm-up: lazy imports, first faults, caches
    walls: list[list[float]] = [[], []]
    equal = 0
    for i in range(pairs):
        outs = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            rp, h = sides[side]
            ms, outs[side] = timed(fn, rp, h, seed + i)
            walls[side].append(ms)
        equal += outs[0] == outs[1]
    base, change = walls
    return {"call": name, "pairs": pairs, "equal": equal,
            "wins": sum(c < b for b, c in zip(base, change)),
            "base_min": min(base), "base_median": statistics.median(base),
            "change_min": min(change), "change_median": statistics.median(change)}


def report_line(r: dict[str, Any]) -> str:
    rel = r["change_median"] / r["base_median"] - 1.0
    return (f"{r['call']:<13} base min {r['base_min']:9.3f} med {r['base_median']:9.3f} ms | "
            f"change min {r['change_min']:9.3f} med {r['change_median']:9.3f} ms | "
            f"{100 * rel:+6.1f} % | wins {r['wins']}/{r['pairs']} | "
            f"equal {r['equal']}/{r['pairs']}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="revision timed as the base (default HEAD)")
    p.add_argument("--change", default=None,
                   help="revision timed as the change (default: the working tree)")
    p.add_argument("--pairs", type=int, default=None, help="pairs per call (20; smoke 5)")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--smoke", action="store_true", help="small inputs, a run of seconds")
    args = p.parse_args(argv)
    pairs = args.pairs or (5 if args.smoke else 20)
    records = SMOKE_RECORDS if args.smoke else RECORDS

    with tempfile.TemporaryDirectory(prefix="randpivot-ab-") as tmp:
        tmp = Path(tmp)
        packages = [load_revision(args.base, "base", tmp),
                    load_worktree() if args.change is None
                    else load_revision(args.change, "change", tmp)]
        labels = [args.base, "worktree" if args.change is None else args.change]
        path = tmp / "ab.rpv"
        write_file(packages[1], path, records, args.seed)
        sides = [(rp, rp.open_dataset(path)) for rp in packages]
        print(f"ab: base {labels[0]} ({packages[0].__name__}) against change {labels[1]} "
              f"({packages[1].__name__}); {records} records, {pairs} pairs, "
              f"seeds {args.seed}-{args.seed + pairs - 1}, numpy {np.__version__}")
        results = []
        for name, fn in calls(args.smoke).items():
            results.append(compare(name, fn, sides, pairs, args.seed))
            print(report_line(results[-1]), flush=True)
    differ = [r["call"] for r in results if r["equal"] != r["pairs"]]
    print("ab: outputs " + (f"DIFFER in {', '.join(differ)}" if differ else
                            f"equal in every pair of {len(results)} calls"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
