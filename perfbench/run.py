"""Benchmark of the fprivacy CLI round trip: ``publish`` then ``evaluate``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search_50k_m500_multi --seed 1 \
        --seconds 50 --trace 0

Each run writes its workload's input CSVs with ``gen_synthetic`` from the
seed (cached per workload and data seed under ``.perfbench/``), then runs
``python -m fprivacy.cli publish`` and ``evaluate`` as child processes, one
at a time, against this checkout's ``src``.

``--trace 0`` publishes one input after another until the children have run
for ``--seconds`` in all, evaluating the workload's share of them right after
their publish, and reports the medians of the end-to-end metrics.  Input
generation, the gate and the set-up samples run outside those seconds.
``--trace 1`` runs one round trip, then replays the same stages in-process
(perfbench/stages.py) once untraced and once with a span per call, and
reports the per-layer metrics.

Every round trip goes through the correctness gate in perfbench/gate.py, and
every run first republishes a small fixed-seed golden input whose
qit.csv/st.csv digests must match perfbench/golden.json.  The last line of
stdout is the result object; the line before it holds the run's details.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
STAGES = BENCH / "stages.py"

# Fixed by the workload definitions in README.md.
THETA, INTERCEPT = 2.0, 0.04
POOL, SELECTIVITY = 200, 0.05
QI_SIZES = (8, 8)
GOLDEN_SEED, GOLDEN_N = 0, 20_000
SETUP_SAMPLES = 6


@dataclass(frozen=True)
class Workload:
    n: int
    m: int
    zipf: float
    mode: str
    sigma: int
    # input k of a run is generated with data seed seed * draws + k.  The
    # multi-size search's work changes with the draw by up to 1.5x, so that
    # workload's medians span many draws and not one histogram; at 200k
    # records the work hardly depends on the draw.
    draws: int
    # share of the inputs that are evaluated as well as published.  Evaluate
    # time hardly depends on the draw, so the multi-size workload evaluates
    # every other input and spends the time saved on more draws.
    evaluate_share: float


WORKLOADS = {
    "search_50k_m500_multi": Workload(50_000, 500, 0.9, "multi", 0, 10, 0.5),
    "fakes_200k_m500_sigma2": Workload(200_000, 500, 0.0, "two", 2, 1, 1.0),
    # the ROADMAP reference shape; runnable by name, but not in
    # BENCHMARK.json (see README.md, "Workloads")
    "release_200k_m50": Workload(200_000, 50, 0.9, "two", 0, 1, 1.0),
}

END_TO_END = {"setup_s": "s", "publish_s": "s", "evaluate_s": "s",
              "roundtrip_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "loss": "count", "re_mean": "ratio"}

# per-layer metric -> span whose summed duration it reports
SPAN_METRICS = {
    "core.ingest_s": "core.ingest",
    "optimize.search_s": "optimize.search",
    "validate.partition_s": "validate.partition",
    "validate.assign_s": "validate.assign",
    "publish.publish_s": "publish.publish",
    "publish.fakes_s": "publish.fakes",
    "publish.write_s": "publish.write",
    "publish.read_s": "publish.read",
    "publish.recheck_s": "publish.recheck",
    "publish.max_ratios_s": "publish.max_ratios",
    "cli.align_s": "cli.align",
    "metrics.gen_queries_s": "metrics.gen_queries",
    "metrics.answer_true_s": "metrics.answer_true",
    "metrics.answer_estimated_s": "metrics.answer_estimated",
}
COUNT_METRICS = ("core.ingest_rows", "optimize.cond_evals",
                 "optimize.pairs_examined", "optimize.leaves",
                 "validate.buckets", "publish.bytes_written")
ROOT_SPANS = ("cli.publish", "cli.evaluate")
PER_LAYER = {**{name: "s" for name in SPAN_METRICS},
             **{name: "count" for name in COUNT_METRICS},
             "publish.bytes_written": "bytes",
             "metrics.answered_ratio": "ratio",
             "cli.self_s": "s", "trace.overhead_s": "s"}


@dataclass(frozen=True)
class Input:
    """A generated input CSV."""

    path: Path
    sha256: str


@dataclass
class Child:
    """A finished child process with its wall time and resource usage."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str

    @property
    def report(self):
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None


def run_child(argv, env, log: Path) -> Child:
    """Run one child to completion; CPU and peak RSS come from wait4, which
    reports this child alone (RUSAGE_CHILDREN keeps one running maximum)."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(code=proc.returncode, wall_s=wall,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss / 1024.0,
                 stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                 stderr=err_path.read_text(encoding="utf-8",
                                           errors="replace"))


def child_env() -> dict:
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def cli_argv(command: str, wl: Workload, csv_path: Path, out: Path) -> list:
    argv = [sys.executable, "-m", "fprivacy.cli", command,
            "--input", str(csv_path), "--sa", "sa",
            "--theta", repr(THETA), "--intercept", repr(INTERCEPT),
            "--out", str(out)]
    if command == "publish":
        return argv + ["--mode", wl.mode, "--sigma", str(wl.sigma)]
    return argv + ["--pool", str(POOL), "--selectivity", repr(SELECTIVITY)]


class Session:
    """One benchmark run: its workload, files and operation counts."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.wl = WORKLOADS[name]
        self.env = child_env()
        self.dir = WORK / f"{name}-s{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.inputs: dict[int, Input] = {}
        self.rechecks: dict[tuple, tuple] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def child(self, argv, tag: str) -> Child:
        return run_child(argv, self.env, self.dir / tag)

    def operation(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{what}: {p}" for p in problems)

    def stages(self, *args) -> dict:
        child = self.child([sys.executable, str(STAGES), *map(str, args)],
                           f"stages-{args[0]}")
        if child.code != 0 or child.report is None:
            raise RuntimeError(f"stages.py {args[0]} exited {child.code}: "
                               f"{child.stderr.strip()[-500:]}")
        return child.report

    def generate(self, n: int, files: dict[int, Path]) -> None:
        """Write the missing files of {data seed: path} in one child."""
        files = {seed: path for seed, path in files.items()
                 if not path.exists()}
        if files:
            WORK.joinpath("inputs").mkdir(parents=True, exist_ok=True)
            self.stages("gen", "--n", n, "--m", self.wl.m,
                        "--zipf", self.wl.zipf, "--qi-sizes", *QI_SIZES,
                        "--seed", *files, "--out", *files.values())

    def make_input(self, path: Path) -> Input:
        return Input(path, gate.sha256(path))

    def draw_paths(self) -> dict[int, Path]:
        """{data seed: path} of the run's inputs; input k has data seed
        seed * draws + k."""
        seeds = range(self.seed * self.wl.draws,
                      (self.seed + 1) * self.wl.draws)
        return {s: WORK / "inputs" / f"{self.name}-d{s}.csv" for s in seeds}

    def input(self, k: int) -> Input:
        """The run's k-th input, written once per workload and data seed."""
        k %= self.wl.draws
        if k not in self.inputs:
            paths = self.draw_paths()
            self.generate(self.wl.n, paths)
            self.inputs[k] = self.make_input(list(paths.values())[k])
        return self.inputs[k]

    def round_trip(self, inp: Input, tag: str, evaluate: bool = True):
        """publish then (unless told not to) evaluate, through the gate.

        Every run writes the same directory, so a session keeps one release.
        """
        out = self.dir / "release"
        shutil.rmtree(out, ignore_errors=True)
        pub = self.child(cli_argv("publish", self.wl, inp.path, out),
                         f"publish-{tag}")
        ev = None
        if evaluate:
            ev = self.child(cli_argv("evaluate", self.wl, inp.path, out),
                            f"evaluate-{tag}")
        problems = gate.check_roundtrip(pub, ev,
                                        lambda: self.recheck(inp, out))
        self.operation(problems, f"{'round trip' if evaluate else 'publish'}"
                                 f" {tag}")
        return pub, ev, out

    def recheck(self, inp: Input, out: Path) -> tuple[list[str], int]:
        """gate.py's recheck of a release, in a child process, once per
        distinct input and release: runs on one input write the same bytes."""
        key = (inp.sha256, *(gate.sha256(out / f"{name}.csv")
                             if (out / f"{name}.csv").exists() else None
                             for name in ("qit", "st")))
        if key not in self.rechecks:
            child = self.child(
                [sys.executable, str(BENCH / "gate.py"), "--input", inp.path,
                 "--sa", "sa", "--release", out, "--theta", repr(THETA),
                 "--intercept", repr(INTERCEPT), "--sigma",
                 str(self.wl.sigma)], "gate")
            report = child.report
            if child.code != 0 or report is None:
                return [f"gate.py exited {child.code}: "
                        f"{child.stderr.strip()[-300:]}"], 0
            self.rechecks[key] = report["problems"], report["loss"]
        return self.rechecks[key]

    def golden(self) -> dict:
        """Publish the fixed-seed golden input and compare its digests."""
        expected = json.loads((BENCH / "golden.json").read_text())[self.name]
        path = WORK / "inputs" / f"golden-{self.name}.csv"
        path.unlink(missing_ok=True)  # regenerated, so its digest counts
        self.generate(GOLDEN_N, {GOLDEN_SEED: path})
        inp = self.make_input(path)
        _, _, out = self.round_trip(inp, "golden", evaluate=False)
        found = {"input_sha256": inp.sha256}
        for name in ("qit", "st"):
            path = out / f"{name}.csv"
            found[f"{name}_sha256"] = gate.sha256(path) if path.exists() \
                else None
        self.operation([f"{key} is {found[key]}, golden.json has {value}"
                        for key, value in expected.items()
                        if found[key] != value], "golden digests")
        return found


def measure_setup(session: Session, count: int, tag: str) -> list[float]:
    """Wall times of fresh interpreters importing fprivacy.cli."""
    argv = [sys.executable, "-c", "import fprivacy.cli"]
    samples = []
    for i in range(count):
        child = session.child(argv, f"setup-{tag}{i}")
        session.operation([] if child.code == 0 else
                          [f"exited {child.code}: {child.stderr[-300:]}"],
                          "setup import")
        samples.append(child.wall_s)
    return samples


def end_to_end(session, seconds) -> tuple:
    # the golden publish has already written the bytecode cache; the
    # samples are split around the loop so they see the machine load it does
    setup = measure_setup(session, SETUP_SAMPLES // 2, "a")
    publishes, evaluates = [], []
    # the clock is the wall time of the timed children alone, so input
    # generation and the gate do not take samples away
    busy = 0.0

    def fits(*children) -> bool:
        return busy + sum(statistics.median(c.wall_s for c in runs)
                          for runs in children) <= seconds

    # one input per step: a round trip when the input is due an evaluate
    # and one is expected to fit, else a publish-only run if one fits.  The
    # evaluated inputs are spread over the run, not bunched at its start.
    while True:
        k = len(publishes)
        due = len(evaluates) < session.wl.evaluate_share * (k + 1)
        if not publishes or (due and fits(publishes, evaluates)):
            pub, ev, _ = session.round_trip(session.input(k), str(k))
            evaluates.append(ev)
        elif fits(publishes):
            pub, ev, _ = session.round_trip(session.input(k), f"p{k}",
                                            evaluate=False)
        else:
            break
        busy += pub.wall_s + (ev.wall_s if ev else 0.0)
        publishes.append(pub)
    setup += measure_setup(session, SETUP_SAMPLES - len(setup), "b")

    def median(children, key):
        return statistics.median(getattr(c, key) for c in children)

    metrics = {"setup_s": statistics.median(setup),
               "publish_s": median(publishes, "wall_s"),
               "evaluate_s": median(evaluates, "wall_s"),
               "cpu_s": median(publishes, "cpu_s")
               + median(evaluates, "cpu_s"),
               "peak_rss_mb": max(median(publishes, "peak_rss_mb"),
                                  median(evaluates, "peak_rss_mb"))}
    metrics["roundtrip_s"] = metrics["publish_s"] + metrics["evaluate_s"]
    for key, children in (("loss", publishes), ("re_mean", evaluates)):
        values = [c.report[key] for c in children
                  if key in (c.report or {})]
        if values:
            metrics[key] = statistics.median(values)
    return metrics, {"setup_samples_s": setup,
                     "publish_samples": [sample(c, "loss")
                                         for c in publishes],
                     "evaluate_samples": [sample(c, "re_mean")
                                          for c in evaluates]}


def sample(child, key) -> dict:
    return {"wall_s": child.wall_s, "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb,
            key: (child.report or {}).get(key)}


def per_layer(session) -> tuple:
    inp = session.input(0)
    pub, ev, cli_out = session.round_trip(inp, "0")
    replays = {}
    try:
        for trace in (0, 1):
            out = session.dir / f"release-replay{trace}"
            shutil.rmtree(out, ignore_errors=True)
            replays[trace] = session.stages(
                "replay", "--trace", trace, "--input", inp.path,
                "--out", out, "--spans", session.dir / "spans.json",
                "--mode", session.wl.mode, "--sigma", session.wl.sigma,
                "--theta", THETA, "--intercept", INTERCEPT, "--pool", POOL,
                "--selectivity", SELECTIVITY)
    except RuntimeError as e:
        session.operation([str(e)], "traced replay")
        return {}, {}
    traced = replays[1]
    problems = []
    for key, cli_value in (("loss", (pub.report or {}).get("loss")),
                           ("re_mean", (ev.report or {}).get("re_mean"))):
        if traced[key] != cli_value:
            problems.append(f"traced {key} {traced[key]!r} != CLI "
                            f"{cli_value!r}")
    for name in ("qit", "st"):
        path = cli_out / f"{name}.csv"
        if path.exists() and gate.sha256(path) != traced[f"{name}_sha256"]:
            problems.append(f"traced {name}.csv differs from the CLI's")
    if not traced["privacy_ok"]:
        problems.append("traced recheck reports a privacy violation")
    session.operation(problems, "traced replay")

    spans = traced["spans"]
    counters = traced["counters"]
    metrics = {name: spans.get(span, {}).get("total_s", 0.0)
               for name, span in SPAN_METRICS.items()}
    metrics.update({name: counters[name] for name in COUNT_METRICS})
    metrics["metrics.answered_ratio"] = (counters["metrics.answered"]
                                         / counters["metrics.queries"])
    layer_sum = sum(spans[root]["total_s"] - spans[root]["self_s"]
                    for root in ROOT_SPANS)
    metrics["cli.self_s"] = pub.wall_s + ev.wall_s - layer_sum
    metrics["trace.overhead_s"] = traced["total_s"] - replays[0]["total_s"]
    details = {"spans": spans, "counters": counters,
               "replay_total_s": {"untraced": replays[0]["total_s"],
                                  "traced": traced["total_s"]},
               "cli_wall_s": {"publish": pub.wall_s, "evaluate": ev.wall_s},
               "spans_file": str(session.dir / "spans.json")}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="non-negative seed of the run's input data")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "fprivacy" / "cli.py").is_file():
        print(f"error: no fprivacy sources under {SRC}", file=sys.stderr)
        return 2

    session = Session(args.workload, args.seed)
    wl = session.wl
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "env": session.stages("env")}
    info["golden"] = session.golden()
    if args.trace:
        values, info["detail"] = per_layer(session)
        units = PER_LAYER
    else:
        values, info["detail"] = end_to_end(session, args.seconds)
        units = END_TO_END
    info["inputs"] = [{"path": str(inp.path.relative_to(ROOT)),
                       "sha256": inp.sha256}
                      for _, inp in sorted(session.inputs.items())]
    info["workload_params"] = {**vars(wl), "qi_sizes": list(QI_SIZES),
                               "theta": THETA, "intercept": INTERCEPT,
                               "pool": POOL, "selectivity": SELECTIVITY}
    info["problems"] = session.problems
    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    (session.dir / "result.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
