"""The benchmark's correctness gate, independent of the fprivacy package.

A round trip passes when both CLI children exit 0, ``evaluate`` reports
``privacy_ok: true``, and this module's own reading of the written
``qit.csv``/``st.csv`` finds a release that:

* keeps every input record's QI values, in input order, with a bucket id;
* holds in each bucket's ST rows the bucket's real sensitive values plus
  exactly ``sigma`` fakes, each fake distinct and absent from the real ones;
* keeps every value's in-bucket share at or under its threshold
  ``min(1, theta * frequency + intercept)``;
* has the squared-size loss both CLI reports state.

Standard library only, so a fault in the package cannot hide itself here.
run.py runs the release check as a child process,

    python3 perfbench/gate.py --input CSV --sa sa --release DIR \
        --theta T --intercept C --sigma S

which prints ``{"problems": [...], "loss": N}``: the benchmark's own process
then never holds the tables, whose memory its timed children would otherwise
inherit in their peak RSS.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# Slack on the count scale for thresholds that are float products, the same
# guard the package's value_slots applies before flooring.
COUNT_SLACK = 1e-9


@dataclass(frozen=True)
class Source:
    """The input table as the benchmark wrote it."""

    qi_names: tuple[str, ...]
    sa_name: str
    qi_rows: list[tuple[str, ...]]
    sa_values: list[str]

    def thresholds(self, theta: float, intercept: float) -> dict[str, float]:
        n = len(self.sa_values)
        return {label: min(1.0, theta * (count / n) + intercept)
                for label, count in Counter(self.sa_values).items()}


def load_source(path, sa_name: str) -> Source:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    sa_idx = header.index(sa_name)
    keep = [i for i in range(len(header)) if i != sa_idx]
    return Source(
        qi_names=tuple(header[i] for i in keep),
        sa_name=sa_name,
        qi_rows=[tuple(row[i] for i in keep) for row in rows[1:]],
        sa_values=[row[sa_idx] for row in rows[1:]],
    )


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def recheck_release(source: Source, out_dir, thresholds: dict[str, float],
                    sigma: int) -> tuple[list[str], int]:
    """Check a written release against its input; returns (problems, loss)."""
    out = Path(out_dir)
    problems: list[str] = []
    try:
        with open(out / "qit.csv", newline="", encoding="utf-8") as fh:
            qit = list(csv.reader(fh))
        with open(out / "st.csv", newline="", encoding="utf-8") as fh:
            st = list(csv.reader(fh))
    except OSError as e:
        return [f"cannot read release: {e}"], 0
    if not qit or qit[0] != list(source.qi_names) + ["BID"]:
        problems.append(f"qit.csv header {qit[:1]} is not "
                        f"{list(source.qi_names) + ['BID']}")
    if not st or st[0] != ["BID", source.sa_name]:
        problems.append(f"st.csv header {st[:1]} is not "
                        f"{['BID', source.sa_name]}")
    if problems:
        return problems, 0
    if len(qit) - 1 != len(source.qi_rows):
        problems.append(f"qit.csv has {len(qit) - 1} rows, "
                        f"input has {len(source.qi_rows)}")

    real = Counter()
    sizes = Counter()
    for lineno, (row, qi, sa) in enumerate(
            zip(qit[1:], source.qi_rows, source.sa_values), start=2):
        if len(row) != len(qi) + 1 or tuple(row[:-1]) != qi:
            problems.append(f"qit.csv:{lineno}: row {row} does not carry "
                            f"the input's QI values {list(qi)}")
            break
        sizes[row[-1]] += 1
        real[row[-1], sa] += 1
    published = Counter((row[0], row[1]) for row in st[1:] if len(row) == 2)
    if sum(published.values()) != len(st) - 1:
        problems.append("st.csv has rows without exactly two fields")
    st_sizes = Counter()
    for (bid, _), count in published.items():
        st_sizes[bid] += count

    if set(st_sizes) != set(sizes):
        problems.append("qit.csv and st.csv name different buckets")
    for bid, size in sizes.items():
        if st_sizes[bid] != size + sigma:
            problems.append(f"bucket {bid}: {st_sizes[bid]} ST rows for "
                            f"{size} records and sigma={sigma}")
            break
    for key, count in real.items():
        if published[key] < count:
            problems.append(f"bucket {key[0]}: value {key[1]!r} published "
                            f"{published[key]}x, held by {count} records")
            break
    for key, count in published.items():
        extra = count - real[key]
        if extra > 0 and (real[key] or extra > 1):
            problems.append(f"bucket {key[0]}: fake {key[1]!r} repeats or "
                            f"collides with a real value")
            break
    for (bid, label), count in published.items():
        if label not in thresholds:
            problems.append(f"bucket {bid}: unknown value {label!r}")
            break
        if count > thresholds[label] * st_sizes[bid] + COUNT_SLACK:
            problems.append(
                f"bucket {bid}: value {label!r} holds {count} of "
                f"{st_sizes[bid]} rows, over its threshold "
                f"{thresholds[label]!r}")
            break
    return problems, sum((s - 1) ** 2 for s in sizes.values())


def check_roundtrip(publish, evaluate, recheck) -> list[str]:
    """Every reason one publish -> evaluate round trip failed (none: passed).

    ``publish``/``evaluate`` are finished children with ``code``, ``report``
    (the parsed JSON stdout, or None) and ``stderr``.  ``evaluate`` is None
    for a publish-only run.  ``recheck()`` gives the (problems, loss) of
    ``recheck_release`` on the written release; it is called only when both
    children succeeded.
    """
    children = [("publish", publish)]
    if evaluate is not None:
        children.append(("evaluate", evaluate))
    problems = []
    for name, child in children:
        if child.code != 0:
            problems.append(f"{name} exited {child.code}: "
                            f"{child.stderr.strip()[-300:]}")
        elif child.report is None:
            problems.append(f"{name} printed no JSON report")
    if problems:
        return problems
    if evaluate is not None and evaluate.report.get("privacy_ok") is not True:
        problems.append(f"evaluate reports privacy_ok="
                        f"{evaluate.report.get('privacy_ok')!r}")
    found, loss = recheck()
    problems.extend(found)
    if not found:
        for name, child in children:
            if child.report.get("loss") != loss:
                problems.append(f"{name} reports loss "
                                f"{child.report.get('loss')}, the release "
                                f"has {loss}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Recheck a written release.")
    parser.add_argument("--input", required=True)
    parser.add_argument("--sa", required=True)
    parser.add_argument("--release", required=True)
    parser.add_argument("--theta", type=float, required=True)
    parser.add_argument("--intercept", type=float, required=True)
    parser.add_argument("--sigma", type=int, required=True)
    args = parser.parse_args(argv)
    source = load_source(args.input, args.sa)
    problems, loss = recheck_release(
        source, args.release, source.thresholds(args.theta, args.intercept),
        args.sigma)
    json.dump({"problems": problems, "loss": loss}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
