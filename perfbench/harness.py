"""Shared pieces of the benchmark: the closed-loop op log, the span
recorder used by traced runs, and small statistics helpers.

Layers are timed only from outside: a span wraps one call into a public
function of a ``randpivot`` module, and its name starts with that
module's name (``weights.draw_weights``), so self time can be grouped by
module.  Spans whose name starts with ``harness.`` are the benchmark's
own work between calls.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

MODULES = ("rng", "mc", "weights", "pivots", "intervals", "edf", "bigdata", "cli")
SETUP_REPS = 3  # set-up runs per benchmark run; setup_s is their median


@dataclass
class Config:
    """What one invocation of the benchmark runs."""

    root: Path          # checkout root (holds src/randpivot)
    workdir: Path       # scratch space inside the checkout
    seed: int
    seconds: float
    trace: bool
    smoke: bool


@dataclass
class Outcome:
    """What a workload hands back to run.py."""

    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]]
    summary: list[str]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)


class Calibrator:
    """A fixed piece of reference work, timed between ops.

    On a shared 2-vCPU guest, co-tenant load can change CPU speed by up to
    2x within minutes.  Raw op walls then spread too much between runs to
    gate on (30-75 % between 30 s runs on such a guest), so each op's
    wall is also expressed in units of a reference kernel's wall, measured
    right before and right after the op.  The kernel calls nothing in
    randpivot, so a change to randpivot moves the ratio while the
    machine's speed cancels out.  It should resemble the op's work:

    - in-process ops (``subprocess_cmd`` None): small numpy draws and
      counts, compensated sums, interpreter work and a memory-bound sort;
    - ops that start interpreters: starting one that runs ``subprocess_cmd``.
    """

    def __init__(self, subprocess_cmd: list[str] | None = None,
                 env: dict[str, str] | None = None) -> None:
        import numpy as np
        self._np = np
        self._array = np.random.default_rng(0).random(200_000)
        self._cmd, self._env = subprocess_cmd, env
        self.walls: list[float] = []
        self.last = self.measure()

    def measure(self) -> float:
        t0 = time.perf_counter()
        if self._cmd is not None:
            subprocess.run(self._cmd, env=self._env, check=True, capture_output=True)
        else:
            np = self._np
            g = np.random.Generator(np.random.Philox(5))
            s = 0.0
            for _ in range(300):
                x = g.normal(0.0, 1.0, 20)
                c = np.bincount(g.integers(0, 20, 20), minlength=20)
                s += math.fsum(x * c) + float(np.abs(x).sum())
            np.sort(self._array)
        self.walls.append(time.perf_counter() - t0)
        return self.walls[-1]


class OpLog:
    """Latencies and failures of one client's closed loop, by op class.

    With a Calibrator, ``calibrated[cls]`` holds each op's wall divided by
    the mean calibration wall measured just before and just after it."""

    def __init__(self, cal: Calibrator | None = None) -> None:
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.calibrated: dict[str, list[float]] = defaultdict(list)
        self.cal = cal
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, cls: str, fn: Callable[[], Any],
            check: Callable[[Any], list[str]]) -> Any:
        """Run one op, time it, and count it failed if it raises or its
        output breaks an invariant.  Returns the output, or None on failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # an op boundary: record and keep the loop running
            self._record(cls, time.perf_counter() - t0)
            self.fail(f"{cls}: raised\n{traceback.format_exc(limit=3)}")
            return None
        self._record(cls, time.perf_counter() - t0)
        bad = check(out)
        if bad:
            self.fail(f"{cls}: " + "; ".join(bad))
            return None
        return out

    def _record(self, cls: str, wall: float) -> None:
        self.latencies[cls].append(wall)
        if self.cal is not None:
            before, self.cal.last = self.cal.last, self.cal.measure()
            self.calibrated[cls].append(wall / (0.5 * (before + self.cal.last)))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def latency_lines(log: OpLog, light: str, heavy: str) -> list[str]:
    """Raw walls of both op classes (p90 where 100 samples allow it) and
    the calibration kernel's wall, for the summary."""
    out = []
    for role, cls in (("light", light), ("heavy", heavy)):
        lat = log.latencies[cls]
        line = f"{role}_op_p50_ms = {median(lat) * 1e3:.3f} ms raw wall ({len(lat)} {cls} ops"
        if len(lat) >= 100:
            line += f"; p90 {percentile(lat, 90) * 1e3:.3f} ms"
        out.append(line + ")")
    if log.cal is not None:
        out.append(f"calibration kernel: median {median(log.cal.walls) * 1e3:.3f} ms "
                   f"over {len(log.cal.walls)} runs (1 cal = one kernel wall)")
    return out


def closed_loop(rotation: list[Callable[[], None]], seconds: float) -> int:
    """Call the rotation's ops in order, one at a time, until ``seconds``
    have passed.  The first rotation always completes, so every op class
    has at least one sample.  Returns the number of ops issued."""
    deadline = time.perf_counter() + seconds
    issued = 0
    while True:
        for op in rotation:
            if issued >= len(rotation) and time.perf_counter() >= deadline:
                return issued
            op()
            issued += 1


class Recorder:
    """In-memory spans: name, start, end (ns) and the parent span's index."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> dict[str, int]:
        """Self time per span name: duration minus the children's durations."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent}) + "\n")


class NullRecorder:
    """The untraced twin of Recorder: span() does nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def replay_pair(op: Callable[[int, Any], None], min_ops: int, rec: Recorder,
                seconds: float) -> tuple[float, float, int]:
    """Run replay op i untraced and traced, alternating which goes first,
    for i = 0, 1, ... until ``seconds`` have passed and at least
    ``min_ops`` ops ran.  Returns (untraced wall, traced wall, ops)."""
    null = NullRecorder()
    walls = [0.0, 0.0]
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        for which in ((0, 1) if i % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            if which == 0:
                op(i, null)
            else:
                with rec.span("harness.op"):
                    op(i, rec)
            walls[which] += time.perf_counter() - t0
        i += 1
    return walls[0], walls[1], i


def fresh_import(cfg: Config) -> None:
    """Start a new interpreter that imports randpivot and exits."""
    subprocess.run([sys.executable, "-c", "import randpivot"], env=python_env(cfg),
                   check=True, cwd=cfg.workdir)


def import_probe(cfg: Config) -> tuple[dict[str, tuple[float, str]], str]:
    """Start-up cost every user pays: a fresh interpreter importing
    randpivot, and the share of that import spent in scipy.stats (from
    ``-X importtime`` cumulative times)."""
    t0 = time.perf_counter()
    fresh_import(cfg)
    import_s = time.perf_counter() - t0
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import randpivot"],
                         env=python_env(cfg), check=True, cwd=cfg.workdir,
                         capture_output=True, text=True)
    cumulative = {}
    for line in out.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative[parts[2]] = int(parts[1])
    scipy_s = cumulative.get("scipy.stats", 0) * 1e-6
    line = (f"cli.import_s = {import_s:.4f} s (fresh interpreter); -X importtime: "
            f"randpivot {cumulative['randpivot'] * 1e-6:.4f} s cumulative, of which "
            f"cli.import_scipy_stats_s = {scipy_s:.4f} s")
    return {"cli.import_s": (import_s, "s"),
            "cli.import_scipy_stats_share": (scipy_s / (cumulative["randpivot"] * 1e-6),
                                             "fraction")}, line


def python_env(cfg: Config) -> dict[str, str]:
    """Environment for child interpreters: the checkout's src on the path."""
    env = dict(os.environ)
    src = str(cfg.root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def layer_metrics(rec: Recorder, untraced_s: float, traced_s: float,
                  ops: int) -> dict[str, tuple[float, str]]:
    """Self-time share per module, tracing overhead and traced wall per op."""
    by_module: dict[str, int] = defaultdict(int)
    for name, ns in rec.self_ns().items():
        by_module[name.split(".", 1)[0]] += ns
    total = sum(by_module.values())
    out: dict[str, tuple[float, str]] = {}
    for mod in MODULES + ("harness",):
        out[f"{mod}.self_share"] = (by_module.get(mod, 0) / total, "fraction")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    out["trace.op_ms"] = (traced_s / ops * 1e3, "ms")
    return out


def per_call_lines(rec: Recorder, unit: str = "us") -> list[str]:
    """Mean self time per call of every span name, for the summary."""
    scale = {"us": 1e-3, "ms": 1e-6}[unit]
    calls = rec.calls()
    lines = []
    for name, ns in sorted(rec.self_ns().items()):
        lines.append(f"{name}_{unit} = {ns * scale / calls[name]:.3f} {unit}/call "
                     f"(self time, {calls[name]} calls)")
    return lines


def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def timed_setups(setup: Callable[[], Any]) -> tuple[float, Any]:
    """Run set-up SETUP_REPS times; return the median wall and the last result."""
    walls = []
    result = None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        result = setup()
        walls.append(time.perf_counter() - t0)
    return median(walls), result


def peak_rss_mib() -> float:
    """High-water resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finite(*values: float) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def interval_problems(lower: float, center: float, upper: float,
                      half: float, unit: bool) -> list[str]:
    """Invariants every two-sided interval report must satisfy."""
    bad = []
    if not finite(lower, center, upper, half):
        bad.append(f"non-finite interval {lower}, {center}, {upper}, {half}")
    elif not lower <= center <= upper:
        bad.append(f"order broken: {lower} <= {center} <= {upper}")
    elif unit and not (0.0 <= lower and upper <= 1.0):
        bad.append(f"EDF endpoints outside [0, 1]: {lower}, {upper}")
    return bad
