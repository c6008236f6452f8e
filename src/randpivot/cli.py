"""Command-line surface: every library operation as a batch command.

All commands write one report to stdout as JSON (default) or CSV, and are
byte-for-byte reproducible for a fixed --seed regardless of --threads
(pass --no-timestamp to drop the only run-dependent field).  Exit codes:
0 success, 1 data or statistical error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from typing import Any

import numpy as np

from . import bigdata, bounds, edf, intervals, mc
from .errors import RandPivotError
from .intervals import parse_policy, subsample_size
from .pivots import PivotKind
from .rng import stream
from .weights import draw_weights

__all__ = ["main", "build_parser"]


def _env_seed(parser: argparse.ArgumentParser) -> int:
    text = os.environ.get("RANDPIVOT_SEED", "0")
    try:
        return int(text)
    except ValueError:
        parser.error(f"environment variable RANDPIVOT_SEED: invalid int value: {text!r}")


def _band(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers lo,hi, got {text!r}") from None
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, threads: bool = False) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="root seed (default: env RANDPIVOT_SEED or 0)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default: json)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field from the report")
    if threads:
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="worker processes for replications (default: 1)")


def _resolve_m(text: str, n: int) -> int:
    if text.strip().lower() == "equal-n":
        return n
    return subsample_size(n, parse_policy(text))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randpivot",
        description="Confidence intervals for means and distribution functions "
                    "from multinomial-weight randomized pivots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a CSV column to the binary dataset format")
    p.add_argument("--csv", required=True, help="source CSV file")
    p.add_argument("--column", default="0", help="column name or 0-based index (default: 0)")
    p.add_argument("--out", required=True, help="destination dataset file")
    p.add_argument("--header", action="store_true", help="skip a header row")
    p.add_argument("--delimiter", default=",", help="field delimiter (default: ,)")
    _add_common(p)

    p = sub.add_parser("ci-mean", help="interval for the population mean from in-memory data")
    p.add_argument("--data", required=True, help="CSV file with the sample")
    p.add_argument("--column", default="0", help="column name or 0-based index (default: 0)")
    p.add_argument("--header", action="store_true", help="skip a header row")
    p.add_argument("--alpha", type=float, default=0.05, help="1 - level (default: 0.05)")
    p.add_argument("--variant", choices=("g1", "g2"), default="g1",
                   help="scale by S_n (g1) or the sub-sample s.d. (g2) (default: g1)")
    p.add_argument("--m", default="equal-n",
                   help="weight total: equal-n, an integer, or a sizing policy (default: equal-n)")
    p.add_argument("--sided", choices=intervals.SIDES, default="two",
                   help="interval sidedness (default: two)")
    _add_common(p)

    p = sub.add_parser("ci-edf", help="pointwise interval for F_n(x) or F(x) from in-memory data")
    p.add_argument("--data", required=True, help="CSV file with the sample")
    p.add_argument("--column", default="0", help="column name or 0-based index (default: 0)")
    p.add_argument("--header", action="store_true", help="skip a header row")
    p.add_argument("--x", type=float, required=True, help="evaluation point")
    p.add_argument("--target", choices=("edf", "df"), default="edf",
                   help="cover F_n(x) (edf) or F(x) (df) (default: edf)")
    p.add_argument("--alpha", type=float, default=0.05, help="1 - level (default: 0.05)")
    p.add_argument("--m", default="equal-n",
                   help="weight total: equal-n, an integer, or a sizing policy (default: equal-n)")
    p.add_argument("--sided", choices=intervals.SIDES, default="two",
                   help="interval sidedness (default: two)")
    _add_common(p)

    p = sub.add_parser("ci-bigdata", help="interval for the full-data mean or EDF of a binary dataset")
    p.add_argument("--data", required=True, help="binary dataset file")
    p.add_argument("--stat", choices=("mean", "edf"), default="mean",
                   help="target statistic (default: mean)")
    p.add_argument("--x", type=float, default=None, help="evaluation point (stat=edf)")
    p.add_argument("--alpha", type=float, default=0.05, help="1 - level (default: 0.05)")
    p.add_argument("--policy", default="power-delta:0.25",
                   help="sizing policy power-delta:D, loglog, or fixed:M (default: power-delta:0.25)")
    p.add_argument("--sided", choices=intervals.SIDES, default="two",
                   help="interval sidedness (default: two)")
    p.add_argument("--dkw-eps", type=float, default=None,
                   help="report the uniform EDF bound at this eps (stat=edf)")
    _add_common(p)

    p = sub.add_parser("coverage", help="empirical coverage of a pivot over seeded replications")
    p.add_argument("--dist", required=True, help="distribution spec, e.g. normal:0,1")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--m", default="equal-n",
                   help="weight total: equal-n, an integer, or a sizing policy (default: equal-n)")
    p.add_argument("--pivot", choices=("t1", "t2", "g1", "g2"), default="g1",
                   help="pivot kind (default: g1)")
    p.add_argument("--reps", type=int, default=1000, help="replications (default: 1000)")
    p.add_argument("--alpha", type=float, default=0.05, help="nominal error (default: 0.05)")
    p.add_argument("--sided", choices=intervals.SIDES, default="upper",
                   help="coverage sidedness (default: upper)")
    p.add_argument("--classical-cutoff", choices=("normal", "student-t"), default="normal",
                   help="cutoff for the classical t comparator (default: normal)")
    _add_common(p, threads=True)

    p = sub.add_parser("proportion", help="proportion of inner coverage estimates inside a band")
    p.add_argument("--dist", required=True, help="distribution spec, e.g. normal:0,1")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--m", default="equal-n",
                   help="weight total: equal-n, an integer, or a sizing policy (default: equal-n)")
    p.add_argument("--pivot", choices=("t1", "t2", "g1", "g2"), default="g1",
                   help="pivot kind (default: g1)")
    p.add_argument("--outer", type=int, default=500, help="outer replications (default: 500)")
    p.add_argument("--inner", type=int, default=500, help="inner replications (default: 500)")
    p.add_argument("--band", type=_band, default="0.94,0.96",
                   help="coverage band lo,hi (default: 0.94,0.96)")
    p.add_argument("--alpha", type=float, default=0.05, help="nominal error (default: 0.05)")
    p.add_argument("--sided", choices=intervals.SIDES, default="upper",
                   help="coverage sidedness (default: upper)")
    p.add_argument("--classical-cutoff", choices=("normal", "student-t"), default="normal",
                   help="cutoff for the classical t comparator (default: normal)")
    _add_common(p, threads=True)

    p = sub.add_parser("kdist", help="sup distance between a pivot's ECDF and the standard normal")
    p.add_argument("--dist", required=True, help="distribution spec, e.g. normal:0,1")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--m", default="equal-n",
                   help="weight total: equal-n, an integer, or a sizing policy (default: equal-n)")
    p.add_argument("--pivot", choices=("t1", "t2", "g1", "g2"), default="g1",
                   help="pivot kind (default: g1)")
    p.add_argument("--reps", type=int, default=100000, help="replications (default: 100000)")
    _add_common(p, threads=True)

    p = sub.add_parser("bound", help="evaluate the explicit normal-approximation error bound")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--m", type=int, required=True, help="weight total")
    p.add_argument("--delta", type=float, required=True, help="exceedance level delta")
    p.add_argument("--eps", type=float, required=True, help="slack eps (must be < 1)")
    p.add_argument("--eps1", type=float, required=True, help="variance slack eps1")
    p.add_argument("--eps2", type=float, required=True, help="continuity slack eps2")
    p.add_argument("--rho3", type=float, required=True,
                   help="standardized third absolute moment E|X-mu|^3/sigma^3")
    p.add_argument("--p-s2", type=float, default=None,
                   help="P(|S_n^2 - sigma^2| > eps1^2); else give --sigma2/--mu4")
    p.add_argument("--sigma2", type=float, default=None, help="variance, for the Chebyshev fallback")
    p.add_argument("--mu4", type=float, default=None, help="fourth central moment, for the fallback")
    p.add_argument("--c-be", type=float, default=bounds.DEFAULT_C_BE,
                   help=f"universal constant (default: {bounds.DEFAULT_C_BE})")
    p.add_argument("--plus-eps2", action="store_true",
                   help="use +eps2 in the margin numerator instead of the default -eps2")
    _add_common(p)

    p = sub.add_parser("rate", help="asymptotic error rate of the pivot CLTs")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--m", type=int, required=True, help="weight total")
    p.add_argument("--kind", choices=("a", "b", "c", "d"), required=True, help="rate kind")
    _add_common(p)

    p = sub.add_parser("sizing", help="sub-sample size from a sizing policy")
    p.add_argument("--n", type=int, required=True, help="data size")
    p.add_argument("--policy", required=True,
                   help="power-delta:D, loglog, or fixed:M")
    _add_common(p)

    return parser


def _column_arg(text: str) -> str | int:
    try:
        return int(text)
    except ValueError:
        return text


def _emit(payload: dict[str, Any], args: argparse.Namespace) -> None:
    if not args.no_timestamp:
        payload = {**payload, "timestamp": datetime.now(timezone.utc).isoformat()}
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        keys = sorted(payload.keys())
        print(",".join(keys))
        print(",".join(str(payload[k]) for k in keys))


def _ci_payload(ci: intervals.ConfidenceInterval, extra: dict[str, Any] | None = None) -> dict[str, Any]:
    payload = {"schema_version": mc.SCHEMA_VERSION, "kind": "ci", **ci.to_dict()}
    if extra:
        payload.update(extra)
    return payload


def _load_sample(args: argparse.Namespace) -> np.ndarray:
    column = _column_arg(args.column)
    header = args.header or isinstance(column, str)
    return bigdata.read_csv_column(args.data, column, header=header)


def _run(args: argparse.Namespace) -> dict[str, Any]:
    seed = args.seed
    cmd = args.command

    if cmd == "ingest":
        column = _column_arg(args.column)
        header = args.header or isinstance(column, str)
        h = bigdata.ingest_csv(args.csv, column, args.out,
                               header=header, delimiter=args.delimiter)
        return {"schema_version": mc.SCHEMA_VERSION, "kind": "ingest",
                "path": str(h.path), "count": h.count}

    if cmd == "ci-mean":
        x = _load_sample(args)
        n = x.size
        m = _resolve_m(args.m, n)
        w = draw_weights(n, m, stream(seed))
        ci = intervals.ci_mu(x, w, args.alpha, variant=args.variant, sided=args.sided)
        return _ci_payload(ci, {"seed": seed})

    if cmd == "ci-edf":
        x = _load_sample(args)
        n = x.size
        m = _resolve_m(args.m, n)
        w = draw_weights(n, m, stream(seed))
        fn = edf.ci_edf if args.target == "edf" else edf.ci_df
        ci = fn(x, w, args.x, args.alpha, sided=args.sided)
        return _ci_payload(ci, {"seed": seed})

    if cmd == "ci-bigdata":
        h = bigdata.open_dataset(args.data)
        policy = parse_policy(args.policy)
        rng = stream(seed)
        if args.stat == "mean":
            ci, report = bigdata.bigdata_ci_mean(h, args.alpha, policy, rng, sided=args.sided)
        else:
            ci, report = bigdata.bigdata_ci_edf(h, args.x, args.alpha, policy, rng,
                                                sided=args.sided, dkw_eps=args.dkw_eps)
        payload = _ci_payload(ci, {"seed": seed})
        payload.update({f"report_{k}": v for k, v in report.to_dict().items()})
        return payload

    if cmd == "coverage":
        d = mc.parse_dist(args.dist)
        m = _resolve_m(args.m, args.n)
        report = mc.coverage_study(
            d, args.n, m, PivotKind(args.pivot), args.reps, args.alpha,
            sided=args.sided, seed=seed,
            classical_cutoff=args.classical_cutoff.replace("-", "_"),
            threads=args.threads,
        )
        return report.to_dict()

    if cmd == "proportion":
        d = mc.parse_dist(args.dist)
        m = _resolve_m(args.m, args.n)
        report = mc.proportion_study(
            d, args.n, PivotKind(args.pivot), outer_reps=args.outer,
            inner_reps=args.inner, band=args.band, alpha=args.alpha, seed=seed,
            m=m, sided=args.sided,
            classical_cutoff=args.classical_cutoff.replace("-", "_"),
            threads=args.threads,
        )
        return report.to_dict()

    if cmd == "kdist":
        d = mc.parse_dist(args.dist)
        m = _resolve_m(args.m, args.n)
        dist = mc.kolmogorov_distance(PivotKind(args.pivot), d, args.n, m,
                                      args.reps, seed=seed, threads=args.threads)
        return {"schema_version": mc.SCHEMA_VERSION, "kind": "kdist",
                "dist": d.label(), "n": args.n, "m": m, "pivot": args.pivot,
                "reps": args.reps, "distance": dist, "seed": seed}

    if cmd == "bound":
        p_s2 = args.p_s2
        if p_s2 is None:
            p_s2 = bounds.chebyshev_p_s2(args.n, args.eps1, args.sigma2, args.mu4)
        b = bounds.BoundInputs(n=args.n, m=args.m, delta=args.delta, eps=args.eps,
                               eps1=args.eps1, eps2=args.eps2, rho3=args.rho3,
                               p_s2_dev=p_s2, c_be=args.c_be)
        res = bounds.error_bound(b, plus_eps2=args.plus_eps2)
        return {"schema_version": mc.SCHEMA_VERSION, "kind": "bound",
                "n": args.n, "m": args.m, "raw": res.raw, "capped": res.capped,
                "pi1": res.pi1, "pi2": res.pi2, "margin": res.margin,
                "p_s2_dev": p_s2, "plus_eps2": args.plus_eps2,
                "eps2_meets_continuity": b.eps2_meets_continuity}

    if cmd == "rate":
        r = bounds.rate(args.n, args.m, args.kind)
        return {"schema_version": mc.SCHEMA_VERSION, "kind": "rate",
                "n": args.n, "m": args.m, "rate_kind": args.kind.upper(), "rate": r}

    if cmd == "sizing":
        m = subsample_size(args.n, parse_policy(args.policy))
        return {"schema_version": mc.SCHEMA_VERSION, "kind": "sizing",
                "n": args.n, "policy": args.policy, "m": m}

    raise AssertionError(f"unhandled command {cmd!r}")


def _check_usage(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Option combinations argparse cannot express; each is a usage error."""
    if args.command == "ci-bigdata" and args.stat == "edf" and args.x is None:
        parser.error("--x is required for --stat edf")
    if args.command == "bound" and args.p_s2 is None and (args.sigma2 is None or args.mu4 is None):
        parser.error("give --p-s2, or both --sigma2 and --mu4")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_usage(parser, args)
    if args.seed is None:
        args.seed = _env_seed(parser)
    try:
        payload = _run(args)
    except (RandPivotError, OSError, ValueError, OverflowError) as exc:
        print(f"randpivot: error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
