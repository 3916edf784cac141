"""Command-line pipeline: analyze, optimize, publish, evaluate, dpdemo, plot.

Every command reads flags, runs the matching library calls, and emits a JSON
report (tables go to CSV files).  Exit codes: 0 success, 2 infeasible
privacy, 3 configuration error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

# Loading numpy starts OpenBLAS with a thread per core, whose start-up spin
# cost about 0.1 s of CPU per process on a 2-core machine.  fprivacy calls no
# BLAS routine, so a CLI process runs one thread unless the user set the
# count.  The package's __init__ leaves numpy unloaded, so this runs first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .core import (ConfigError, IngestionError, InfeasiblePrivacyError,
                   MicrodataTable, PrivacySpec, check_eligibility,
                   ell_for_spec, histogram, ingest_csv, linear_privacy_spec,
                   load_privacy_spec, value_slots)
from .publish import (check_published_privacy, published_max_ratios,
                      read_published, release, write_published)

# optimize (with validate), metrics and dpsim are imported by the commands
# that run them, so publish loads only core and publish, and evaluate adds
# metrics
if TYPE_CHECKING:
    from .optimize import SearchConfig
    from .validate import BucketSetting

OPTIMIZE_MODES = ("two", "multi", "brute", "anatomy")


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the configuration-error exit code."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    io_flags = _Parser(add_help=False)
    io_flags.add_argument("--input", required=True,
                          help="CSV microdata file with a header row")
    io_flags.add_argument("--sa", required=True,
                          help="name of the sensitive column")

    privacy_flags = _Parser(add_help=False)
    privacy_flags.add_argument("--theta", type=float, default=8.0,
                               help="slope of the linear threshold rule")
    privacy_flags.add_argument("--intercept", type=float, default=0.02,
                               help="offset of the linear threshold rule")
    privacy_flags.add_argument(
        "--privacy-file", default=None,
        help="CSV of explicit per-value thresholds (overrides theta rule)")

    size_flags = _Parser(add_help=False)
    size_flags.add_argument("--max-size", type=int, default=50,
                            help="largest bucket size the search considers")

    seed_flag = _Parser(add_help=False)
    seed_flag.add_argument("--seed", type=_non_negative_int, default=0)

    parser = _Parser(prog="fprivacy",
                     description="Per-value disclosure-capped bucketization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[io_flags, privacy_flags],
                       help="histogram, thresholds and feasibility report")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("optimize",
                       parents=[io_flags, privacy_flags, size_flags],
                       help="search for a minimum-loss bucket setting")
    p.add_argument("--mode", choices=OPTIMIZE_MODES, default="two")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("publish",
                       parents=[io_flags, privacy_flags, size_flags,
                                seed_flag],
                       help="bucketize and write qit.csv/st.csv")
    p.add_argument("--mode", choices=("two", "multi"), default="two")
    p.add_argument("--sigma", type=_non_negative_int, default=0,
                   help="fake sensitive rows added per bucket")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_publish)

    p = sub.add_parser("evaluate",
                       parents=[io_flags, privacy_flags, seed_flag],
                       help="recheck a published directory and measure error")
    p.add_argument("--out", required=True,
                   help="directory a previous publish wrote")
    p.add_argument("--pool", type=int, default=1000,
                   help="number of count queries to evaluate")
    p.add_argument("--selectivity", type=float, default=0.05)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("dpdemo", parents=[seed_flag],
                       help="noisy-ratio convergence table")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--x", type=float, nargs="+",
                   default=[100.0, 200.0, 400.0, 1000.0],
                   help="true denominator counts, ascending")
    p.add_argument("--ratio", type=float, default=0.5,
                   help="true proportion y/x")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--out", default=None, help="write the JSON table here")
    p.set_defaults(func=cmd_dpdemo)

    p = sub.add_parser("plot",
                       parents=[io_flags, size_flags, seed_flag],
                       help="gnuplot data for MSE and RE against theta")
    p.add_argument("--thetas", default="2,4,8,16,32",
                   help="comma-separated list of theta values to sweep")
    p.add_argument("--intercept", type=float, default=0.02)
    p.add_argument("--pool", type=int, default=500)
    p.add_argument("--selectivity", type=float, default=0.05)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_plot)
    return parser


def _inputs(args) -> tuple[MicrodataTable, np.ndarray, PrivacySpec]:
    """The raw table, its SA counts, and the thresholds that --privacy-file
    or the --theta/--intercept rule gives its values."""
    table = ingest_csv(args.input, sa_column=args.sa)
    hist = histogram(table)
    if args.privacy_file is not None:
        spec = load_privacy_spec(args.privacy_file, table.sa_domain)
    else:
        spec = linear_privacy_spec(hist, args.theta, args.intercept)
    return table, hist, spec


def _size_range(args, table, hist, spec) -> SearchConfig:
    """The search range, up to --max-size, for an achievable spec."""
    from .optimize import SearchConfig
    eligibility = check_eligibility(hist, spec)
    if not eligibility:
        worst = ", ".join(
            f"value {table.sa_domain[code]!r} occurs {count}x but at most "
            f"{value_slots(spec, len(table))[code]} allowed"
            for code, count, _ in eligibility.violations[:3])
        raise InfeasiblePrivacyError(f"thresholds unachievable: {worst}")
    return SearchConfig.for_spec(spec, max_size=args.max_size)


def _setting(sizes) -> BucketSetting:
    """The setting of buckets of the given sizes."""
    from .validate import BucketSetting
    return BucketSetting.of(*sorted(Counter(sizes).items()))


def _emit(payload: dict, out=None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n", encoding="utf-8")


def cmd_analyze(args) -> int:
    table, hist, spec = _inputs(args)
    eligibility = check_eligibility(hist, spec)
    caps = value_slots(spec, len(table))
    report = {
        "records": len(table),
        "sa_values": len(table.sa_domain),
        "ell": ell_for_spec(spec),
        "eligible": bool(eligibility),
        "violations": [
            {"value": table.sa_domain[code], "count": int(count),
             "threshold": float(threshold)}
            for code, count, threshold in eligibility.violations],
        "values": [
            {"value": table.sa_domain[code],
             "count": int(hist[code]),
             "frequency": float(hist[code] / len(table)),
             "threshold": float(spec.thresholds[code]),
             "max_count": int(caps[code])}
            for code in range(len(table.sa_domain))],
    }
    _emit(report, args.out)
    return 0 if eligibility else 2


def cmd_optimize(args) -> int:
    from .metrics import mse_of
    from .optimize import (anatomy_setting, brute_force_optimal,
                           multi_size_bucketing, two_size_bucketing)
    table, hist, spec = _inputs(args)
    cfg = _size_range(args, table, hist, spec)
    report = {"mode": args.mode, "records": len(table)}
    if args.mode == "anatomy":
        report["ell"] = ell = ell_for_spec(spec)
        try:
            setting = anatomy_setting(len(table), ell)
        except ConfigError as e:
            raise InfeasiblePrivacyError(str(e)) from None
        # ell >= the derived minimum size, so only the maximum can bind
        largest = max(g.size for g in setting if g.count > 0)
        if largest > cfg.max_size:
            raise InfeasiblePrivacyError(
                f"anatomy needs buckets of {largest} records, above the "
                f"maximum size {cfg.max_size}")
    elif args.mode == "brute":
        result = brute_force_optimal(hist, spec, cfg)
        if result is None:
            raise InfeasiblePrivacyError(
                "no valid bucketing within the size bounds")
        setting = result.setting
    elif args.mode == "two":
        result = two_size_bucketing(hist, spec, cfg)
        if result is None:
            raise InfeasiblePrivacyError(
                "no valid two-size bucketing within the size bounds")
        setting = result.setting
        report["cond_evals"] = result.cond_evals
    else:
        setting = _setting(group.size for _, group in multi_size_bucketing(
            table, None, spec, cfg) for _ in range(group.count))
    report["loss"] = setting.loss
    report["buckets"] = [[g.size, g.count] for g in setting if g.count > 0]
    report["mse"] = mse_of(setting, len(table))
    _emit(report, args.out)
    return 0


def cmd_publish(args) -> int:
    table, hist, spec = _inputs(args)
    cfg = _size_range(args, table, hist, spec)
    pt = release(table, spec, cfg, args.mode, args.sigma, args.seed)
    write_published(pt, args.out)
    setting = _setting(pt.bucket_sizes.tolist())
    _emit({
        "records": int(len(table)),
        "buckets": int(pt.bucket_count),
        "bucket_sizes": [[g.size, g.count] for g in setting],
        "loss": setting.loss,
        "sigma": int(args.sigma),
        "out": str(args.out),
    })
    return 0


def _recode(labels, domain, what: str) -> np.ndarray:
    """Lookup table taking codes over ``labels`` to codes over ``domain``."""
    target = {label: idx for idx, label in enumerate(domain)}
    try:
        return np.array([target[label] for label in labels], dtype=np.int32)
    except KeyError as e:
        raise ConfigError(
            f"published {what} value {e.args[0]!r} not in the raw table")


def _align_published(pt, table):
    """Re-express a read-back publication in the raw table's code space,
    pairing QI columns by name."""
    if sorted(pt.qi_names) != sorted(table.qi_names) or len(pt) != len(table):
        raise ConfigError(
            f"published tables hold {len(pt)} records with QI columns "
            f"{list(pt.qi_names)}, the raw table {len(table)} with "
            f"{list(table.qi_names)}")
    published = sorted(range(len(pt.qi_names)), key=pt.qi_names.__getitem__)
    raw = sorted(range(len(table.qi_names)), key=table.qi_names.__getitem__)
    qi_codes = np.empty_like(pt.qi_codes)
    for i, j in zip(published, raw):  # a repeated name pairs in column order
        qi_codes[:, j] = _recode(pt.qi_domains[i], table.qi_domains[j],
                                 "QI")[pt.qi_codes[:, i]]
    sa_lut = _recode(pt.sa_domain, table.sa_domain, "SA")
    return dataclasses.replace(
        pt, qi_names=tuple(table.qi_names), qi_codes=qi_codes,
        st_codes=sa_lut[pt.st_codes],
        qi_domains=tuple(tuple(d) for d in table.qi_domains),
        sa_domain=tuple(table.sa_domain),
        fakes=np.sort(sa_lut[pt.fakes], axis=1))


def cmd_evaluate(args) -> int:
    from .metrics import gen_queries, relative_error
    table, _, spec = _inputs(args)
    pt = _align_published(read_published(args.out), table)
    thresholds = dict(zip(table.sa_domain, spec.thresholds.tolist()))
    privacy_ok = check_published_privacy(pt, thresholds)
    pool = gen_queries(table.qi_domains, table.sa_domain, args.pool,
                       args.selectivity, seed=args.seed)
    report = relative_error(pool, table, pt)
    payload = report.to_dict()
    payload["privacy_ok"] = privacy_ok
    payload["sigma"] = int(pt.sigma)
    payload["max_ratios"] = published_max_ratios(pt)
    _emit(payload)
    if not privacy_ok:
        raise InfeasiblePrivacyError(
            "published tables violate the privacy thresholds")
    return 0


def cmd_dpdemo(args) -> int:
    from .dpsim import LaplaceMech, convergence_sweep
    mech = LaplaceMech(epsilon=args.epsilon, seed=args.seed)
    xs = sorted(float(x) for x in args.x)
    rows = convergence_sweep(args.ratio, mech, xs, n_samples=args.samples)
    _emit({
        "epsilon": args.epsilon,
        "scale": mech.scale,
        "ratio": args.ratio,
        "samples": int(args.samples),
        "rows": [est.to_dict() for est in rows],
    }, args.out)
    return 0


def cmd_plot(args) -> int:
    from .metrics import gen_queries, relative_error, write_xy_dat
    table = ingest_csv(args.input, sa_column=args.sa)
    hist = histogram(table)
    try:
        thetas = [float(tok) for tok in args.thetas.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad theta list: {args.thetas!r}")
    if not thetas:
        raise ConfigError("need at least one theta value")
    pool = gen_queries(table.qi_domains, table.sa_domain, args.pool,
                       args.selectivity, seed=args.seed)
    mses, res = [], []
    for theta in thetas:
        try:
            spec = linear_privacy_spec(hist, theta, args.intercept)
            cfg = _size_range(args, table, hist, spec)
            pt = release(table, spec, cfg, seed=args.seed)
        except (InfeasiblePrivacyError, ConfigError) as e:
            raise type(e)(f"theta={theta}: {e}") from None
        report = relative_error(pool, table, pt)
        mses.append(report.mse)
        res.append(report.re_mean)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mse_path = out / "mse_vs_theta.dat"
    re_path = out / "re_vs_theta.dat"
    write_xy_dat(mse_path, thetas, mses, comment="theta mse")
    write_xy_dat(re_path, thetas, res, comment="theta re_mean")
    _emit({
        "thetas": thetas,
        "mse": mses,
        "re_mean": res,
        "files": [str(mse_path), str(re_path)],
    })
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InfeasiblePrivacyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (IngestionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
