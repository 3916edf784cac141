"""Command-line pipeline: analyze, optimize, publish, evaluate, dpdemo, plot.

Every command reads flags, runs the matching library calls, and emits a JSON
report (tables go to CSV files).  Exit codes: 0 success, 2 infeasible
privacy, 3 configuration error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .core import (ConfigError, IngestionError, InfeasiblePrivacyError,
                   MicrodataTable, PrivacySpec, check_eligibility,
                   ell_for_spec, histogram, ingest_csv, linear_privacy_spec,
                   load_privacy_spec, value_slots)
from .dpsim import LaplaceMech, convergence_sweep
from .metrics import (gen_queries, loss_of, mse_of, relative_error,
                      write_xy_dat)
from .optimize import (SearchConfig, anatomy_baseline_loss,
                       brute_force_optimal, multi_size_bucketing,
                       two_size_bucketing)
from .publish import (check_published_privacy, inject_fakes,
                      published_max_ratios, publish, read_published,
                      write_published)
from .validate import allocation_bounds, build_assignment, partition_records

OPTIMIZE_MODES = ("two", "multi", "brute", "anatomy")


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
    size_flags.add_argument("--min-size", type=int, default=None,
                            help="relax the smallest allowed bucket size")
    size_flags.add_argument("--max-size", type=int, default=50,
                            help="largest bucket size the search considers")

    seed_flag = _Parser(add_help=False)
    seed_flag.add_argument("--seed", type=int, default=0)

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
    p.add_argument("--sigma", type=int, default=0,
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


def _load_table(args) -> MicrodataTable:
    return ingest_csv(args.input, sa_column=args.sa)


def _load_spec(args, table, hist) -> PrivacySpec:
    if args.privacy_file is not None:
        return load_privacy_spec(args.privacy_file, table.sa_domain)
    return linear_privacy_spec(hist, args.theta, args.intercept)


def _require_eligible(hist, spec, sa_domain) -> None:
    eligibility = check_eligibility(hist, spec)
    if not eligibility:
        worst = ", ".join(
            f"value {sa_domain[code]!r} occurs {count}x but at most "
            f"{int(np.floor(threshold * hist.total))} allowed"
            for code, count, threshold in eligibility.violations[:3])
        raise InfeasiblePrivacyError(f"thresholds unachievable: {worst}")


def _emit(payload: dict, out=None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n", encoding="utf-8")


def _bucketize(table, hist, spec, cfg, mode: str):
    """Shared search step: returns (assignment, loss, {size: count})."""
    if mode == "two":
        result = two_size_bucketing(hist, spec, cfg)
        if result is None:
            raise InfeasiblePrivacyError(
                "no valid two-size bucketing within the size bounds")
        bounds = allocation_bounds(hist, spec, result.setting)
        parts = partition_records(table, bounds, result.setting)
        assignment = build_assignment(
            table, list(zip(parts, result.setting)))
        sizes = Counter({g.size: g.count for g in result.setting})
        return assignment, result.loss, sizes
    leaves = multi_size_bucketing(table, None, spec, cfg)
    sizes = Counter()
    for _, group in leaves:
        sizes[group.size] += group.count
    return build_assignment(table, leaves), loss_of(
        [g for _, g in leaves]), sizes


def cmd_analyze(args) -> int:
    table = _load_table(args)
    hist = histogram(table)
    spec = _load_spec(args, table, hist)
    eligibility = check_eligibility(hist, spec)
    caps = value_slots(spec, hist.total)
    report = {
        "records": int(hist.total),
        "sa_values": int(hist.m),
        "ell": ell_for_spec(spec),
        "eligible": bool(eligibility),
        "violations": [
            {"value": table.sa_domain[code], "count": int(count),
             "threshold": float(threshold)}
            for code, count, threshold in eligibility.violations],
        "values": [
            {"value": table.sa_domain[code],
             "count": int(hist.counts[code]),
             "frequency": float(hist.freqs[code]),
             "threshold": float(spec.thresholds[code]),
             "max_count": int(caps[code])}
            for code in range(hist.m)],
    }
    _emit(report, args.out)
    return 0 if eligibility else 2


def cmd_optimize(args) -> int:
    table = _load_table(args)
    hist = histogram(table)
    spec = _load_spec(args, table, hist)
    _require_eligible(hist, spec, table.sa_domain)
    report = {"mode": args.mode, "records": int(hist.total)}
    if args.mode == "anatomy":
        ell = ell_for_spec(spec)
        loss = anatomy_baseline_loss(hist.total, ell)
        upgraded = hist.total % ell
        plain = hist.total // ell - upgraded
        buckets = [(ell, plain), (ell + 1, upgraded)]
        report.update(loss=loss, ell=ell)
    else:
        cfg = SearchConfig.for_spec(spec, max_size=args.max_size,
                                    min_size=args.min_size)
        if args.mode == "brute":
            result = brute_force_optimal(hist, spec, cfg)
            if result is None:
                raise InfeasiblePrivacyError(
                    "no valid bucketing within the size bounds")
            buckets = [(g.size, g.count) for g in result.setting]
            report.update(loss=result.loss)
        elif args.mode == "two":
            result = two_size_bucketing(hist, spec, cfg)
            if result is None:
                raise InfeasiblePrivacyError(
                    "no valid two-size bucketing within the size bounds")
            buckets = [(g.size, g.count) for g in result.setting]
            report.update(loss=result.loss,
                          cond_evals=result.cond_evals,
                          pc_splits=result.pc_splits)
        else:
            _, loss, sizes = _bucketize(table, hist, spec, cfg, "multi")
            buckets = sorted(sizes.items())
            report.update(loss=loss)
    report["buckets"] = [[int(size), int(count)] for size, count in buckets
                         if count > 0]
    report["mse"] = mse_of([size for size, count in report["buckets"]
                            for _ in range(count)], hist.total) \
        if hist.total > 1 else 0.0
    _emit(report, args.out)
    return 0


def cmd_publish(args) -> int:
    table = _load_table(args)
    hist = histogram(table)
    spec = _load_spec(args, table, hist)
    _require_eligible(hist, spec, table.sa_domain)
    cfg = SearchConfig.for_spec(spec, max_size=args.max_size,
                                min_size=args.min_size)
    assignment, loss, sizes = _bucketize(table, hist, spec, cfg, args.mode)
    pt = publish(table, assignment, seed=args.seed)
    if args.sigma > 0:
        caps = {label: float(spec.thresholds[i])
                for i, label in enumerate(table.sa_domain)}
        pt = inject_fakes(pt, args.sigma, seed=args.seed, thresholds=caps)
    write_published(pt, args.out)
    _emit({
        "records": int(len(table)),
        "buckets": int(pt.bucket_count),
        "bucket_sizes": [[int(s), int(c)] for s, c in sorted(sizes.items())
                         if c > 0],
        "loss": int(loss),
        "sigma": int(args.sigma),
        "out": str(args.out),
    })
    return 0


def _align_published(pt, table):
    """Re-express a read-back publication in the raw table's code space."""
    if len(pt.qi_domains) != len(table.qi_domains):
        raise ConfigError(
            f"published tables carry {len(pt.qi_domains)} QI attributes, "
            f"the raw table has {len(table.qi_domains)}")
    qi_codes = np.empty_like(pt.qi_codes)
    for j, domain in enumerate(pt.qi_domains):
        target = {label: idx for idx, label in enumerate(table.qi_domains[j])}
        try:
            lut = np.array([target[label] for label in domain],
                           dtype=np.int32)
        except KeyError as e:
            raise ConfigError(
                f"published QI value {e.args[0]!r} not in the raw table")
        qi_codes[:, j] = lut[pt.qi_codes[:, j]]
    target = {label: idx for idx, label in enumerate(table.sa_domain)}
    try:
        sa_lut = np.array([target[label] for label in pt.sa_domain],
                          dtype=np.int32)
    except KeyError as e:
        raise ConfigError(
            f"published SA value {e.args[0]!r} not in the raw table")
    return dataclasses.replace(
        pt, qi_codes=qi_codes, st_codes=sa_lut[pt.st_codes],
        qi_domains=tuple(tuple(d) for d in table.qi_domains),
        sa_domain=tuple(table.sa_domain),
        fake_map=tuple(tuple(sorted(int(sa_lut[c]) for c in codes))
                       for codes in pt.fake_map))


def cmd_evaluate(args) -> int:
    table = _load_table(args)
    hist = histogram(table)
    spec = _load_spec(args, table, hist)
    pt = _align_published(read_published(args.out), table)
    thresholds = {label: float(spec.thresholds[code])
                  for code, label in enumerate(table.sa_domain)}
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
    table = _load_table(args)
    hist = histogram(table)
    try:
        thetas = [float(tok) for tok in args.thetas.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad theta list: {args.thetas!r}")
    if not thetas:
        raise ConfigError("need at least one theta value")
    mses, res = [], []
    for theta in thetas:
        spec = linear_privacy_spec(hist, theta, args.intercept)
        _require_eligible(hist, spec, table.sa_domain)
        cfg = SearchConfig.for_spec(spec, max_size=args.max_size,
                                    min_size=args.min_size)
        result = two_size_bucketing(hist, spec, cfg)
        if result is None:
            raise InfeasiblePrivacyError(
                f"no valid bucketing at theta={theta}")
        bounds = allocation_bounds(hist, spec, result.setting)
        parts = partition_records(table, bounds, result.setting)
        assignment = build_assignment(table,
                                      list(zip(parts, result.setting)))
        pt = publish(table, assignment, seed=args.seed)
        pool = gen_queries(table.qi_domains, table.sa_domain, args.pool,
                           args.selectivity, seed=args.seed)
        report = relative_error(pool, table, pt)
        mses.append(mse_of(result.setting, hist.total))
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
