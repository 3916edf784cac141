"""In-process helpers for the benchmark, run as child processes of run.py.

    python3 perfbench/stages.py env
    python3 perfbench/stages.py gen --n N --m M --zipf Z --qi-sizes 8 8 \
        --seed S... --out FILE...
    python3 perfbench/stages.py replay --trace 0|1 --input CSV --out DIR ...

``env`` prints the interpreter, library and backend versions.  ``gen`` writes
a seeded synthetic CSV per seed.  ``replay`` runs the publish and evaluate stages in
one interpreter, calling each module's public functions in the order
``fprivacy.cli`` calls them.  With ``--trace 1`` every call is a span; the
spans are kept in memory and written to ``--spans`` at the end.  With
``--trace 0`` only the total is timed, which gives the tracing overhead.

The package is imported from ``PYTHONPATH``, which run.py points at the
checkout's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

EMPTY = contextlib.nullcontext()


class Tracer:
    """Spans (name, start, end, parent, run id) held in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._open[-1] if self._open else None,
                  "run_id": self.run_id}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, on_result=None):
        """Trace every call of ``module.attr`` made while the context is open.

        Used for calls the package makes internally (per-query answers, the
        multi-size recursion), which the replay cannot reach from outside.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        @contextlib.contextmanager
        def patched():
            setattr(module, attr, traced)
            try:
                yield
            finally:
                setattr(module, attr, original)
        return patched()

    def summary(self) -> dict:
        """Total and self time per span name; self time excludes children."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        out: dict[str, dict] = {}
        for record, children in zip(self.spans, child_time):
            duration = record["end"] - record["start"]
            entry = out.setdefault(record["name"],
                                   {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            entry["total_s"] += duration
            entry["self_s"] += duration - children
            entry["calls"] += 1
        return out

    def write(self, path: Path) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - origin, end=s["end"] - origin)
                 for s in self.spans]
        path.write_text(json.dumps({"run_id": self.run_id, "spans": spans}))


class NullTracer:
    """Same interface as Tracer, recording nothing."""

    def span(self, name):
        return EMPTY

    def wrap(self, module, attr, name, on_result=None):
        return EMPTY


def cmd_env(args) -> dict:
    import numpy
    import scipy

    from fprivacy import _accel
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": has_numba,
        "jit_enabled": bool(_accel.JIT_ENABLED),
    }


def cmd_gen(args) -> dict:
    import numpy as np

    from fprivacy.metrics import gen_synthetic

    if len(args.seed) != len(args.out):
        raise SystemExit("gen needs one --out per --seed")
    for seed, out in zip(args.seed, map(Path, args.out)):
        table = gen_synthetic(args.n, args.m, args.zipf, args.qi_sizes,
                              seed=seed)
        columns = [np.asarray(domain, dtype=object)[table.qi_codes[:, j]]
                   for j, domain in enumerate(table.qi_domains)]
        columns.append(
            np.asarray(table.sa_domain, dtype=object)[table.sa_codes])
        partial = out.with_name(out.name + ".partial")
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(table.qi_names) + [table.sa_name])
            writer.writerows(zip(*columns))
        partial.replace(out)
    return {"rows": args.n, "files": len(args.out)}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def replay(args, tracer) -> dict:
    """The stages of ``fprivacy.cli`` publish then evaluate, in its order."""
    from fprivacy import cli, core, metrics, optimize, publish, validate

    counters = {"core.ingest_rows": 0, "optimize.cond_evals": 0,
                "optimize.pairs_examined": 0}

    def count_search(result):
        if result is not None:
            counters["optimize.cond_evals"] += result.cond_evals
            counters["optimize.pairs_examined"] += len(result.trace)

    def load_spec():
        with tracer.span("core.ingest"):
            table = core.ingest_csv(args.input, sa_column="sa")
        counters["core.ingest_rows"] += len(table)
        with tracer.span("core.spec"):
            hist = core.histogram(table)
            spec = core.linear_privacy_spec(hist, args.theta, args.intercept)
            if not core.check_eligibility(hist, spec):
                raise core.InfeasiblePrivacyError("thresholds unachievable")
        return table, hist, spec

    t0 = time.perf_counter()
    with tracer.span("cli.publish"):
        table, hist, spec = load_spec()
        cfg = optimize.SearchConfig.for_spec(spec, max_size=50)
        if args.mode == "two":
            with tracer.span("optimize.search"):
                result = optimize.two_size_bucketing(hist, spec, cfg)
            count_search(result)
            with tracer.span("validate.partition"):
                bounds = validate.allocation_bounds(hist, spec, result.setting)
                parts = validate.partition_records(table, bounds,
                                                   result.setting)
            parts = list(zip(parts, result.setting))
            loss = result.loss
        else:
            with tracer.span("optimize.search"), \
                    tracer.wrap(optimize, "two_size_bucketing",
                                "optimize.two_size_bucketing", count_search), \
                    tracer.wrap(optimize, "allocation_bounds",
                                "validate.partition"), \
                    tracer.wrap(optimize, "partition_records",
                                "validate.partition"):
                parts = optimize.multi_size_bucketing(table, None, spec, cfg)
            loss = metrics.loss_of([group for _, group in parts])
        with tracer.span("validate.assign"):
            assignment = validate.build_assignment(table, parts)
        with tracer.span("publish.publish"):
            pt = publish.publish(table, assignment, seed=0)
        with tracer.span("publish.fakes"):
            if args.sigma > 0:
                caps = {label: float(spec.thresholds[i])
                        for i, label in enumerate(table.sa_domain)}
                pt = publish.inject_fakes(pt, args.sigma, seed=0,
                                          thresholds=caps)
        with tracer.span("publish.write"):
            publish.write_published(pt, args.out)
    counters["optimize.leaves"] = len(parts)
    counters["validate.buckets"] = pt.bucket_count

    with tracer.span("cli.evaluate"):
        table, hist, spec = load_spec()
        with tracer.span("publish.read"):
            raw = publish.read_published(args.out)
        with tracer.span("cli.align"):
            pt = cli._align_published(raw, table)
        thresholds = {label: float(spec.thresholds[code])
                      for code, label in enumerate(table.sa_domain)}
        with tracer.span("publish.recheck"):
            privacy_ok = publish.check_published_privacy(pt, thresholds)
        with tracer.span("metrics.gen_queries"):
            pool = metrics.gen_queries(table.qi_domains, table.sa_domain,
                                       args.pool, args.selectivity, seed=0)
        with tracer.span("metrics.relative_error"), \
                tracer.wrap(metrics, "answer_true", "metrics.answer_true"), \
                tracer.wrap(metrics, "answer_estimated",
                            "metrics.answer_estimated"):
            report = metrics.relative_error(pool, table, pt)
        with tracer.span("publish.max_ratios"):
            publish.published_max_ratios(pt)
    total = time.perf_counter() - t0

    out = Path(args.out)
    counters["publish.bytes_written"] = sum(
        (out / name).stat().st_size for name in ("qit.csv", "st.csv"))
    counters["metrics.answered"] = len(report.per_query)
    counters["metrics.queries"] = report.query_count
    return {
        "total_s": total,
        "loss": int(loss),
        "re_mean": report.re_mean,
        "privacy_ok": bool(privacy_ok),
        "qit_sha256": _sha256(out / "qit.csv"),
        "st_sha256": _sha256(out / "st.csv"),
        "counters": counters,
    }


def cmd_replay(args) -> dict:
    if not args.trace:
        return replay(args, NullTracer())
    tracer = Tracer(run_id=f"{Path(args.out).name}-{os.getpid()}")
    result = replay(args, tracer)
    result["spans"] = tracer.summary()
    tracer.write(Path(args.spans))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("env").set_defaults(func=cmd_env)

    p = sub.add_parser("gen")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--zipf", type=float, required=True)
    p.add_argument("--qi-sizes", type=int, nargs="+", required=True)
    p.add_argument("--seed", type=int, nargs="+", required=True)
    p.add_argument("--out", nargs="+", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("replay")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--mode", choices=("two", "multi"), required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--intercept", type=float, required=True)
    p.add_argument("--pool", type=int, required=True)
    p.add_argument("--selectivity", type=float, required=True)
    p.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
