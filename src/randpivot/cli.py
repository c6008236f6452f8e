"""Command-line surface: every library operation as a batch command.

All commands write one report to stdout as JSON (default) or CSV (fields
holding a comma quoted), byte-for-byte reproducible for a fixed --seed
regardless of --threads (--no-timestamp drops the only run-dependent
field).  Exit codes: 0 success, 1 data or statistical error, 2 usage error
(a negative --seed or RANDPIVOT_SEED among them).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from . import bounds, intervals
from .errors import RandPivotError
from .intervals import ConfidenceInterval, _check_m, parse_policy, subsample_size

if TYPE_CHECKING:
    from .mc import DistributionSpec
    from .pivots import PivotKind

__all__ = ["main", "build_parser"]

Payload = dict[str, Any]


def _int_from(low: int, what: str, text: str) -> int:
    """An integer option of at least low, or a usage error saying it must be `what`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {what} integer, got {value}")
    return value


_positive_int = partial(_int_from, 1, "positive")
_seed = partial(_int_from, 0, "non-negative")


def _env_seed(parser: argparse.ArgumentParser) -> int:
    try:
        return _seed(os.environ.get("RANDPIVOT_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        parser.error(f"environment variable RANDPIVOT_SEED: {exc}")


def _band(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers lo,hi, got {text!r}") from None
    return lo, hi


def _column_arg(text: str) -> str | int:
    try:
        index = int(text)
    except ValueError:
        return text
    if index < 0:
        raise argparse.ArgumentTypeError(f"a column index is 0-based, got {index}")
    return index


def _delimiter(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be a single character, got {text!r}")
    return text


def _resolve_m(text: str, n: int) -> int:
    """--m at n >= 2: n for equal-n, an integer as given (or refused, as the
    studies refuse it), and subsample_size's m for a policy, fixed:M too."""
    if text.strip().lower() == "equal-n":
        return n
    try:
        m = int(text)
    except ValueError:
        return subsample_size(n, parse_policy(text))
    return _check_m(n, m)


Option = Callable[[argparse.ArgumentParser], Any]


def _option(flag: str, **spec: Any) -> Option:
    """A helper that adds one declared option to a command's parser."""
    return lambda p: p.add_argument(flag, **spec)


def _add(p: argparse.ArgumentParser, *options: Option) -> None:
    for option in options:
        option(p)


# Options that several commands share, each declared once.
_column = _option("--column", type=_column_arg, default="0",
                  help="column name or 0-based index (default: 0)")
_header = _option("--header", action="store_true", help="skip a header row")
_SAMPLE = (_option("--data", required=True, help="CSV file with the sample"), _column, _header)
_m = _option("--m", default="equal-n",
             help="weight total: equal-n, an integer, or a sizing policy (default: equal-n)")
_alpha = _option("--alpha", type=float, default=0.05, help="1 - level (default: 0.05)")
_sided = _option("--sided", choices=intervals.SIDES, default="two",
                 help="interval sidedness (default: two)")
_n = _option("--n", type=int, required=True, help="sample size")
_SIZES = (_n, _option("--m", type=int, required=True, help="weight total"))
_STUDY = (_option("--dist", required=True, help="distribution spec, e.g. normal:0,1"), _n, _m,
          _option("--pivot", choices=("t1", "t2", "g1", "g2"), default="g1",
                  help="pivot kind (default: g1)"))
_COVERAGE_EVENT = (
    _option("--alpha", type=float, default=0.05, help="nominal error (default: 0.05)"),
    _option("--sided", choices=intervals.SIDES, default="upper",
            help="coverage sidedness (default: upper)"),
    _option("--classical-cutoff", choices=("normal", "student-t"), default="normal",
            help="cutoff for the classical t comparator (default: normal)"))
_COMMON = (_option("--seed", type=_seed, default=None,
                   help="root seed (default: env RANDPIVOT_SEED or 0)"),
           _option("--format", choices=("json", "csv"), default="json",
                   help="output format (default: json)"),
           _option("--no-timestamp", action="store_true",
                   help="omit the timestamp field from the report"))
_threads = _option("--threads", type=_positive_int, default=1,
                   help="worker processes for replications (default: 1)")


def _finish(p: argparse.ArgumentParser, run: Callable[[argparse.Namespace], Payload],
            *extra: Option) -> None:
    """Add the options every command ends with, then extra, and the command's handler."""
    _add(p, *_COMMON, *extra)
    p.set_defaults(run=run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randpivot",
        description="Confidence intervals for means and distribution functions "
                    "from multinomial-weight randomized pivots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a CSV column to the binary dataset format")
    p.add_argument("--csv", required=True, help="source CSV file")
    _column(p)
    p.add_argument("--out", required=True, help="destination dataset file")
    _header(p)
    p.add_argument("--delimiter", type=_delimiter, default=",",
                   help="field delimiter (default: ,)")
    _finish(p, _ingest)

    p = sub.add_parser("ci-mean", help="interval for the population mean from in-memory data")
    _add(p, *_SAMPLE, _alpha)
    p.add_argument("--variant", choices=("g1", "g2"), default="g1",
                   help="scale by S_n (g1) or the sub-sample s.d. (g2) (default: g1)")
    _add(p, _m, _sided)
    _finish(p, _ci_mean)

    p = sub.add_parser("ci-edf", help="pointwise interval for F_n(x) or F(x) from in-memory data")
    _add(p, *_SAMPLE)
    p.add_argument("--x", type=float, required=True, help="evaluation point")
    p.add_argument("--target", choices=("edf", "df"), default="edf",
                   help="cover F_n(x) (edf) or F(x) (df) (default: edf)")
    _add(p, _alpha, _m, _sided)
    _finish(p, _ci_edf)

    p = sub.add_parser("ci-bigdata", help="interval for the full-data mean or EDF of a binary dataset")
    p.add_argument("--data", required=True, help="binary dataset file")
    p.add_argument("--stat", choices=("mean", "edf"), default="mean",
                   help="target statistic (default: mean)")
    p.add_argument("--x", type=float, default=None, help="evaluation point (stat=edf)")
    _alpha(p)
    p.add_argument("--policy", default="power-delta:0.25",
                   help="sizing policy power-delta:D, loglog, or fixed:M (default: power-delta:0.25)")
    _sided(p)
    p.add_argument("--dkw-eps", type=float, default=None,
                   help="report the uniform EDF bound at this eps (stat=edf)")
    _finish(p, _ci_bigdata)

    p = sub.add_parser("coverage", help="empirical coverage of a pivot over seeded replications")
    _add(p, *_STUDY)
    p.add_argument("--reps", type=int, default=1000, help="replications (default: 1000)")
    _add(p, *_COVERAGE_EVENT)
    _finish(p, _coverage, _threads)

    p = sub.add_parser("proportion", help="proportion of inner coverage estimates inside a band")
    _add(p, *_STUDY)
    p.add_argument("--outer", type=int, default=500, help="outer replications (default: 500)")
    p.add_argument("--inner", type=int, default=500, help="inner replications (default: 500)")
    p.add_argument("--band", type=_band, default="0.94,0.96",
                   help="coverage band lo,hi (default: 0.94,0.96)")
    _add(p, *_COVERAGE_EVENT)
    _finish(p, _proportion, _threads)

    p = sub.add_parser("kdist", help="sup distance between a pivot's ECDF and the standard normal")
    _add(p, *_STUDY)
    p.add_argument("--reps", type=int, default=100000, help="replications (default: 100000)")
    _finish(p, _kdist, _threads)

    p = sub.add_parser("bound", help="evaluate the explicit normal-approximation error bound")
    _add(p, *_SIZES)
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
    _finish(p, _bound)

    p = sub.add_parser("rate", help="asymptotic error rate of the pivot CLTs")
    _add(p, *_SIZES)
    p.add_argument("--kind", choices=("a", "b", "c", "d"), required=True, help="rate kind")
    _finish(p, _rate)

    p = sub.add_parser("sizing", help="sub-sample size from a sizing policy")
    p.add_argument("--n", type=int, required=True, help="data size")
    p.add_argument("--policy", required=True, help="power-delta:D, loglog, or fixed:M")
    _finish(p, _sizing)

    return parser


# Command handlers: each returns its report, and main adds the envelope.

def _ingest(args: argparse.Namespace) -> Payload:
    from . import bigdata
    h = bigdata.ingest_csv(args.csv, args.column, args.out,
                           header=args.header, delimiter=args.delimiter)
    return {"kind": "ingest", "path": str(h.path), "count": h.count}


def _sample_ci(args: argparse.Namespace, interval: Callable[..., ConfidenceInterval]) -> Payload:
    """interval(x, w) of the CSV sample x and weights w drawn for it."""
    from ._csv import read_csv_column
    from .pivots import _check_n
    from .rng import stream
    from .weights import draw_weights
    x = read_csv_column(args.data, args.column, header=args.header)
    _check_n(x.size)
    w = draw_weights(x.size, _resolve_m(args.m, x.size), stream(args.seed))
    return {"kind": "ci", **interval(x, w).to_dict(), "seed": args.seed}


def _ci_mean(args: argparse.Namespace) -> Payload:
    return _sample_ci(args, lambda x, w: intervals.ci_mu(
        x, w, args.alpha, variant=args.variant, sided=args.sided))


def _ci_edf(args: argparse.Namespace) -> Payload:
    from . import edf
    fn = edf.ci_edf if args.target == "edf" else edf.ci_df
    return _sample_ci(args, lambda x, w: fn(x, w, args.x, args.alpha, sided=args.sided))


def _ci_bigdata(args: argparse.Namespace) -> Payload:
    from . import bigdata
    from .rng import stream
    h = bigdata.open_dataset(args.data)
    policy, rng = parse_policy(args.policy), stream(args.seed)
    if args.stat == "mean":
        ci, report = bigdata.bigdata_ci_mean(h, args.alpha, policy, rng, sided=args.sided)
    else:
        ci, report = bigdata.bigdata_ci_edf(h, args.x, args.alpha, policy, rng,
                                            sided=args.sided, dkw_eps=args.dkw_eps)
    return {"kind": "ci", **ci.to_dict(), "seed": args.seed,
            **{f"report_{k}": v for k, v in report.to_dict().items()}}


def _study_inputs(args: argparse.Namespace) -> tuple[DistributionSpec, int, PivotKind]:
    """The distribution, weight total and pivot kind of a study command.

    n is checked first, so a sizing policy never sees n < 2 and every
    study command reports it as the study itself would.
    """
    from .mc import parse_dist
    from .pivots import PivotKind, _check_n
    _check_n(args.n)
    return parse_dist(args.dist), _resolve_m(args.m, args.n), PivotKind(args.pivot)


def _shared_keywords(args: argparse.Namespace) -> dict[str, Any]:
    """The keywords coverage_study and proportion_study both take."""
    return dict(alpha=args.alpha, sided=args.sided, seed=args.seed, threads=args.threads,
                classical_cutoff=args.classical_cutoff.replace("-", "_"))


def _coverage(args: argparse.Namespace) -> Payload:
    from . import mc
    d, m, kind = _study_inputs(args)
    return mc.coverage_study(d, args.n, m, kind, args.reps, **_shared_keywords(args)).to_dict()


def _proportion(args: argparse.Namespace) -> Payload:
    from . import mc
    d, m, kind = _study_inputs(args)
    return mc.proportion_study(d, args.n, kind, outer_reps=args.outer, inner_reps=args.inner,
                               band=args.band, m=m, **_shared_keywords(args)).to_dict()


def _kdist(args: argparse.Namespace) -> Payload:
    from . import mc
    d, m, kind = _study_inputs(args)
    dist = mc.kolmogorov_distance(kind, d, args.n, m, args.reps,
                                  seed=args.seed, threads=args.threads)
    return {"kind": "kdist", "dist": d.label(), "n": args.n, "m": m, "pivot": args.pivot,
            "reps": args.reps, "distance": dist, "seed": args.seed}


def _bound(args: argparse.Namespace) -> Payload:
    p_s2 = (args.p_s2 if args.p_s2 is not None
            else bounds.chebyshev_p_s2(args.n, args.eps1, args.sigma2, args.mu4))
    b = bounds.BoundInputs(n=args.n, m=args.m, delta=args.delta, eps=args.eps,
                           eps1=args.eps1, eps2=args.eps2, rho3=args.rho3,
                           p_s2_dev=p_s2, c_be=args.c_be)
    res = bounds.error_bound(b, plus_eps2=args.plus_eps2)
    return {"kind": "bound", "n": args.n, "m": args.m, **asdict(res), "capped": res.capped,
            "p_s2_dev": p_s2, "plus_eps2": args.plus_eps2,
            "eps2_meets_continuity": b.eps2_meets_continuity}


def _rate(args: argparse.Namespace) -> Payload:
    return {"kind": "rate", "n": args.n, "m": args.m, "rate_kind": args.kind.upper(),
            "rate": bounds.rate(args.n, args.m, args.kind)}


def _sizing(args: argparse.Namespace) -> Payload:
    return {"kind": "sizing", "n": args.n, "policy": args.policy,
            "m": subsample_size(args.n, parse_policy(args.policy))}


def _emit(payload: Payload, args: argparse.Namespace) -> None:
    if not args.no_timestamp:
        payload = {**payload, "timestamp": datetime.now(timezone.utc).isoformat()}
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        keys = sorted(payload.keys())
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys)
        writer.writerow(str(payload[k]) for k in keys)


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
        payload = {"schema_version": intervals.SCHEMA_VERSION, **args.run(args)}
    except (RandPivotError, OSError, ValueError, OverflowError, MemoryError, csv.Error) as exc:
        print(f"randpivot: error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
