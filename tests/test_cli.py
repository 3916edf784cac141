"""End-to-end tests of the command-line pipeline and its exit codes."""

import collections
import csv
import dataclasses
import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fprivacy
from conftest import write_table_csv
from fprivacy.cli import main
from fprivacy.core import histogram, ingest_csv, linear_privacy_spec
from fprivacy.metrics import (gen_queries, gen_synthetic, loss_of,
                              relative_error, true_count_cube)
from fprivacy.optimize import (SearchConfig, multi_size_bucketing,
                               two_size_bucketing)
from fprivacy.publish import read_published

WALKTHROUGH_COUNTS = [1] * 8 + [6] * 4 + [9] * 2


def write_walkthrough_csv(path):
    rows = ["Age,Zip,Disease"]
    r = 0
    for code, count in enumerate(WALKTHROUGH_COUNTS):
        for _ in range(count):
            rows.append(f"a{r % 5},z{r % 7},d{code:02d}")
            r += 1
    path.write_text("\n".join(rows) + "\n")
    return path


def write_uniform_csv(path, m=20, per=5):
    rows = ["G,Illness"]
    for code in range(m):
        for i in range(per):
            rows.append(f"g{i % 3},v{code:02d}")
    path.write_text("\n".join(rows) + "\n")
    return path


def write_qi_pair_csv(path, header="q1,q2,sa", records=3000):
    """Records over QIs q1, q2 in {x, y}; q1 picks which half of the 20 SA
    values a record holds.  ``header`` names the columns in the order the
    rows are written, so "q2,q1,sa" writes the same records swapped; any
    other QI name gets q1's values."""
    rows = [{"q1": "x" if i < 1500 else "y",
             "q2": "x" if (i // 10) % 3 == 0 else "y",
             "sa": f"v{(i >= 1500) * 10 + i % 10:02d}"} for i in range(3000)]
    names = header.split(",")
    path.write_text(header + "\n" + "".join(
        ",".join(row.get(name, row["q1"]) for name in names) + "\n"
        for row in rows[:records]))
    return path


@pytest.fixture
def walkthrough_csv(tmp_path):
    return write_walkthrough_csv(tmp_path / "walkthrough.csv")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


WALK_PRIVACY = ["--theta", "2", "--intercept", "0.05"]


def ragged_audit(audit, st_rows):
    """A sigma=2 audit whose bucket 1 lists 1 fake, bucket 2 lists 4 and
    bucket 3 none."""
    buckets = audit["buckets"]
    buckets["1"] = buckets["1"][:1]
    buckets["2"] += buckets.pop("3")
    return json.dumps(audit)


def stray_key_audit(key):
    """An audit that also lists bucket 1's fakes under key."""
    def edit(audit, st_rows):
        audit["buckets"][key] = audit["buckets"]["1"]
        return json.dumps(audit)
    return edit


def one_fake_audit(audit, st_rows):
    """An audit whose sigma is JSON true and whose buckets list one fake
    each, so every count check passes for sigma == 1."""
    audit["sigma"] = True
    for fakes in audit["buckets"].values():
        del fakes[1:]
    return json.dumps(audit)


def foreign_fake_audit(audit, st_rows):
    """An audit whose bucket 1 names a value st.csv holds, but not in bucket
    1's rows."""
    held = {label for bid, label in st_rows[1:] if bid == "1"}
    audit["buckets"]["1"][0] = next(label for _, label in st_rows[1:]
                                    if label not in held)
    return json.dumps(audit)


def qit_bid_edit(template):
    """An edit of qit.csv's lines that rewrites the first row's bucket id,
    its last field, as template.format(id)."""
    def edit(lines):
        row, _, bid = lines[1].rpartition(",")
        return [lines[0], f"{row},{template.format(bid)}", *lines[2:]]
    return edit


def st_bid_edit(template):
    """An edit of st.csv's lines that rewrites the first row's bucket id,
    its first field, as template.format(id)."""
    def edit(lines):
        bid, _, row = lines[1].partition(",")
        return [lines[0], f"{template.format(bid)},{row}", *lines[2:]]
    return edit


class TestAnalyze:

    def test_feasible_report(self, capsys, walkthrough_csv):
        code, report = run(capsys, "analyze", "--input", str(walkthrough_csv),
                           "--sa", "Disease", *WALK_PRIVACY)
        assert code == 0
        assert report["eligible"] is True
        assert report["records"] == 50
        assert report["ell"] == 12
        assert report["violations"] == []
        rare = report["values"][0]
        assert rare == {"value": "d00", "count": 1, "frequency": 0.02,
                        "threshold": 0.09, "max_count": 4}

    def test_uniform_table_ell_formula(self, capsys, tmp_path):
        m, theta, intercept = 20, 8.0, 0.02
        csv_path = write_uniform_csv(tmp_path / "uniform.csv", m=m)
        code, report = run(capsys, "analyze", "--input", str(csv_path),
                           "--sa", "Illness")
        assert code == 0
        assert report["ell"] == math.ceil(1.0 / (theta / m + intercept))

    def test_infeasible_exits_two(self, capsys, walkthrough_csv):
        code, report = run(capsys, "analyze", "--input", str(walkthrough_csv),
                           "--sa", "Disease", "--theta", "0.1",
                           "--intercept", "0.001")
        assert code == 2
        assert report["eligible"] is False
        assert len(report["violations"]) > 0

    def test_report_to_file(self, capsys, tmp_path, walkthrough_csv):
        out = tmp_path / "report.json"
        code, _ = run(capsys, "analyze", "--input", str(walkthrough_csv),
                      "--sa", "Disease", *WALK_PRIVACY, "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["records"] == 50

    def test_empty_privacy_file_is_io_error(self, capsys, tmp_path,
                                            walkthrough_csv):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _ = run(capsys, "analyze", "--input", str(walkthrough_csv),
                      "--sa", "Disease", "--privacy-file", str(empty))
        assert code == 4

    def test_missing_privacy_file_is_io_error(self, capsys, tmp_path,
                                              walkthrough_csv):
        assert main(["analyze", "--input", str(walkthrough_csv), "--sa",
                     "Disease", "--privacy-file",
                     str(tmp_path / "absent.csv")]) == 4
        assert "cannot open" in capsys.readouterr().err

    def test_privacy_row_of_three_fields_is_io_error(self, capsys, tmp_path):
        csv_path = write_uniform_csv(tmp_path / "two.csv", m=2, per=1)
        caps = tmp_path / "caps.csv"
        caps.write_text("v00,1,extra\nv01,1\n")
        assert main(["analyze", "--input", str(csv_path), "--sa", "Illness",
                     "--privacy-file", str(caps)]) == 4
        assert capsys.readouterr().err == \
            f"error: {caps}:1: expected 2 fields, got 3\n"

    def test_blank_privacy_line_is_skipped(self, capsys, tmp_path):
        csv_path = write_uniform_csv(tmp_path / "two.csv", m=2, per=1)
        caps = tmp_path / "caps.csv"
        caps.write_text("sa_value,threshold\nv00,1\n\nv01,0.5\n")
        code, report = run(capsys, "analyze", "--input", str(csv_path),
                           "--sa", "Illness", "--privacy-file", str(caps))
        assert code == 0
        assert [v["threshold"] for v in report["values"]] == [1.0, 0.5]

    def test_threshold_with_overflowing_inverse_is_infeasible(self, capsys,
                                                               tmp_path):
        """1/1e-320 overflows a float; analyze and optimize still report the
        value as infeasible and never crash."""
        csv_path = tmp_path / "two.csv"
        csv_path.write_text("q,s\nx,a\ny,b\n")
        caps = tmp_path / "caps.csv"
        caps.write_text("a,1e-320\nb,1\n")
        flags = ["--input", str(csv_path), "--sa", "s",
                 "--privacy-file", str(caps)]
        code, report = run(capsys, "analyze", *flags)
        assert code == 2
        assert report["eligible"] is False
        assert isinstance(report["ell"], int) and report["ell"] > 2
        assert run(capsys, "optimize", *flags)[0] == 2


class TestOptimize:

    def test_two_size_walkthrough(self, capsys, walkthrough_csv):
        code, report = run(capsys, "optimize", "--input",
                           str(walkthrough_csv), "--sa", "Disease",
                           *WALK_PRIVACY, "--mode", "two")
        assert code == 0
        assert report["loss"] <= 250
        assert report["buckets"] == [[4, 9], [14, 1]]
        assert report["mse"] == pytest.approx(250 / 49)

    def test_modes_agree_on_optimum(self, capsys, walkthrough_csv):
        losses = {}
        for mode in ("two", "multi", "brute"):
            code, report = run(capsys, "optimize", "--input",
                               str(walkthrough_csv), "--sa", "Disease",
                               *WALK_PRIVACY, "--mode", mode)
            assert code == 0
            losses[mode] = report["loss"]
        assert losses["two"] == losses["brute"] == 250
        assert losses["multi"] <= losses["two"]

    def test_anatomy_baseline(self, capsys, walkthrough_csv):
        code, report = run(capsys, "optimize", "--input",
                           str(walkthrough_csv), "--sa", "Disease",
                           *WALK_PRIVACY, "--mode", "anatomy")
        assert code == 0
        assert report["ell"] == 12
        assert report["loss"] == 2 * 11 ** 2 + 2 * 12 ** 2
        assert report["loss"] >= 250

    def test_anatomy_obeys_max_size(self, capsys, walkthrough_csv):
        # sizes 12 and 13 lie above the bound; the searches exit 2 here too
        assert main(["optimize", "--input", str(walkthrough_csv), "--sa",
                     "Disease", *WALK_PRIVACY, "--max-size", "6",
                     "--mode", "anatomy"]) == 2
        assert "above the maximum size 6" in capsys.readouterr().err

    def test_anatomy_uncoverable_table_is_infeasible(self, capsys, tmp_path):
        # 7 distinct values capped at 0.2 give ell = 5, and sizes 5 and 6
        # cannot cover 7 records (the searches publish one bucket of 7)
        csv_path = tmp_path / "seven.csv"
        csv_path.write_text("q,s\n" + "".join(f"x,v{i}\n" for i in range(7)))
        privacy = tmp_path / "privacy.csv"
        privacy.write_text("".join(f"v{i},0.2\n" for i in range(7)))
        assert main(["optimize", "--input", str(csv_path), "--sa", "s",
                     "--privacy-file", str(privacy), "--mode", "anatomy"]) == 2
        assert "cannot be covered by sizes 5 and 6" in capsys.readouterr().err

    def test_trivial_privacy_file_gives_singletons(self, capsys, tmp_path,
                                                   walkthrough_csv):
        spec_file = tmp_path / "trivial.csv"
        spec_file.write_text(
            "".join(f"d{c:02d},1.0\n" for c in range(14)))
        code, report = run(capsys, "optimize", "--input",
                           str(walkthrough_csv), "--sa", "Disease",
                           "--privacy-file", str(spec_file))
        assert code == 0
        assert report["loss"] == 0
        assert report["buckets"] == [[1, 50]]

    def test_infeasible_exits_two(self, capsys, walkthrough_csv):
        code, _ = run(capsys, "optimize", "--input", str(walkthrough_csv),
                      "--sa", "Disease", "--theta", "0.1",
                      "--intercept", "0.001")
        assert code == 2

    def test_infeasible_message_states_value_slots(self, capsys, tmp_path):
        # 0.29 * 100 evaluates to 28.999999999999996; the guarded floor
        # admits 29 copies, in the error and in analyze's max_count alike
        csv_path = tmp_path / "thirty.csv"
        csv_path.write_text("G,Illness\n" + "".join(
            f"g{i % 3},{'x' if i < 30 else f'y{i % 7}'}\n" for i in range(100)))
        privacy = tmp_path / "privacy.csv"
        privacy.write_text("x,0.29\n" + "".join(f"y{k},1\n" for k in range(7)))
        flags = ["--input", str(csv_path), "--sa", "Illness",
                 "--privacy-file", str(privacy)]
        assert main(["optimize", *flags]) == 2
        assert "value 'x' occurs 30x but at most 29 allowed" in \
            capsys.readouterr().err
        code, report = run(capsys, "analyze", *flags)
        assert code == 2
        assert [v["max_count"] for v in report["values"]
                if v["value"] == "x"] == [29]

    @pytest.mark.parametrize("command", ["optimize", "publish"])
    def test_multi_refuses_where_two_does(self, capsys, tmp_path, command):
        # 7 distinct values at 0.2 need buckets of 5 or more, and no
        # buckets of sizes 5 and 6 cover 7 records
        csv_path = write_uniform_csv(tmp_path / "seven.csv", m=7, per=1)
        privacy = tmp_path / "privacy.csv"
        privacy.write_text("".join(f"v{code:02d},0.2\n" for code in range(7)))
        flags = [command, "--input", str(csv_path), "--sa", "Illness",
                 "--privacy-file", str(privacy), "--max-size", "6"]
        if command == "publish":
            flags += ["--out", str(tmp_path / "pub")]
        errors = {}
        for mode in ("two", "multi"):
            assert main([*flags, "--mode", mode]) == 2
            errors[mode] = capsys.readouterr().err
        assert errors["multi"] == errors["two"] == (
            "error: no valid two-size bucketing within the size bounds\n")

    def test_missing_input_exits_four(self, capsys, tmp_path):
        code, _ = run(capsys, "optimize", "--input",
                      str(tmp_path / "nope.csv"), "--sa", "Disease")
        assert code == 4

    def test_bad_flag_exits_three(self, capsys, walkthrough_csv):
        code, _ = run(capsys, "optimize", "--input", str(walkthrough_csv),
                      "--sa", "Disease", "--mode", "bogus")
        assert code == 3
        code, _ = run(capsys, "optimize", "--input", str(walkthrough_csv),
                      "--sa", "Disease", "--max-size", "1")
        assert code == 3


def last_bid_skipped(field):
    """An edit of a release file's lines that relabels its largest bucket
    id B, in field ``field`` of each row, as B + 1; applied to both CSVs it
    leaves bucket B with no record."""
    def edit(lines):
        rows = [line.split(",") for line in lines[1:]]
        last = max(int(row[field]) for row in rows)
        for row in rows:
            if row[field] == str(last):
                row[field] = str(last + 1)
        return [lines[0], *map(",".join, rows)]
    return edit


def every_qit_bid(bid):
    """An edit of qit.csv's lines that gives every row bucket id bid."""
    def edit(lines):
        return [lines[0], *(line[:line.rindex(",") + 1] + bid
                            for line in lines[1:])]
    return edit


class TestPublishEvaluate:

    def publish_args(self, csv_path, out_dir, *extra):
        return ["publish", "--input", str(csv_path), "--sa", "Disease",
                *WALK_PRIVACY, "--out", str(out_dir), *extra]

    def test_publish_then_evaluate_passes_recheck(self, capsys, tmp_path,
                                                  walkthrough_csv):
        out = tmp_path / "pub"
        code, report = run(capsys, *self.publish_args(walkthrough_csv, out,
                                                      "--sigma", "0"))
        assert code == 0
        assert report["loss"] == 250
        assert (out / "qit.csv").exists()
        assert (out / "st.csv").exists()
        assert (out / "fakes_audit.json").exists()
        code, report = run(capsys, "evaluate", "--input",
                           str(walkthrough_csv), "--sa", "Disease",
                           *WALK_PRIVACY, "--out", str(out),
                           "--pool", "200", "--selectivity", "0.2")
        assert code == 0
        assert report["privacy_ok"] is True
        assert report["loss"] == 250
        assert 0 <= report["re_mean"] < 1
        assert report["query_count"] == 200

    def test_sigma_publish_keeps_privacy(self, capsys, tmp_path):
        # small uniform buckets leave spare domain values for the fakes
        csv_path = write_uniform_csv(tmp_path / "uniform.csv")
        out = tmp_path / "pub_sigma"
        code, report = run(capsys, "publish", "--input", str(csv_path),
                           "--sa", "Illness", "--out", str(out),
                           "--sigma", "1", "--seed", "5")
        assert code == 0
        assert report["sigma"] == 1
        audit = json.loads((out / "fakes_audit.json").read_text())
        assert audit["sigma"] == 1
        assert len(audit["buckets"]) == report["buckets"]
        code, report = run(capsys, "evaluate", "--input", str(csv_path),
                           "--sa", "Illness", "--out", str(out),
                           "--pool", "100")
        assert code == 0
        assert report["privacy_ok"] is True
        assert report["sigma"] == 1

    def test_sigma_refused_when_domain_exhausted(self, capsys, tmp_path,
                                                 walkthrough_csv):
        # the walkthrough optimum has a bucket holding the whole SA domain,
        # so no fake value is admissible there
        code, _ = run(capsys, *self.publish_args(
            walkthrough_csv, tmp_path / "pub", "--sigma", "1"))
        assert code == 3

    def test_multi_mode_publish(self, capsys, tmp_path, walkthrough_csv):
        out = tmp_path / "pub_multi"
        code, report = run(capsys, *self.publish_args(
            walkthrough_csv, out, "--mode", "multi"))
        assert code == 0
        assert report["loss"] <= 250

    def test_multi_mode_optimize_matches_publish(self, capsys, tmp_path):
        table = gen_synthetic(600, 20, 0.9, [4, 3], seed=11)
        flags = ["--input", str(write_table_csv(tmp_path / "zipf.csv", table)),
                 "--sa", "sa", "--theta", "2", "--intercept", "0.04",
                 "--mode", "multi"]
        code, optimized = run(capsys, "optimize", *flags)
        assert code == 0
        code, published = run(capsys, "publish", *flags,
                              "--out", str(tmp_path / "pub"))
        assert code == 0
        assert published["loss"] == optimized["loss"] == 5116
        assert published["bucket_sizes"] == optimized["buckets"]
        assert len(optimized["buckets"]) == 5

    def test_published_bytes_deterministic(self, capsys, tmp_path):
        csv_path = write_uniform_csv(tmp_path / "uniform.csv")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code, _ = run(capsys, "publish", "--input", str(csv_path),
                          "--sa", "Illness", "--out", str(out),
                          "--sigma", "1", "--seed", "9")
            assert code == 0
        for name in ("qit.csv", "st.csv", "fakes_audit.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_published_bytes_golden(self, capsys, tmp_path):
        # digests of the release written before publish and inject_fakes
        # moved to the bucket-sorted layout; any change to the shuffle or
        # fake-draw streams shows here
        table = gen_synthetic(300, 30, 0.0, [4, 3], seed=7)
        csv_path = tmp_path / "uniform.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(table.qi_names) + [table.sa_name])
            for row, sa in zip(table.qi_codes, table.sa_codes):
                writer.writerow([table.qi_domains[j][c]
                                 for j, c in enumerate(row)]
                                + [table.sa_domain[sa]])
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "a2d5e7d674ebc99fd2fc86dad7e47774f017410ec85a5de86e513d7daf2529f0")
        out = tmp_path / "pub"
        code, report = run(capsys, "publish", "--input", str(csv_path),
                           "--sa", "sa", "--out", str(out),
                           "--sigma", "2", "--seed", "3")
        assert code == 0
        assert report["bucket_sizes"] == [[4, 55], [10, 8]]
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("qit.csv", "st.csv", "fakes_audit.json")}
        assert digests == {
            "qit.csv": "7e2993febdd541b1f885ef5621bb8a7e"
                       "56622d6ab9cd8c0f352c15f4ab71773e",
            "st.csv": "891163320e0371b010ce45dbc5f33686"
                      "bcc3356f4fa0242be506e309e1ce013b",
            "fakes_audit.json": "de872f6f5a34e8bb53382eb32d76d924"
                                "e2c881cd909f4162634bcb0acccce490",
        }

    def test_bucket_sizes_omit_empty_groups(self, capsys, tmp_path):
        # 120 records split exactly into 40 buckets of 3, so the two-size
        # setting's second group is empty
        csv_path = write_uniform_csv(tmp_path / "uniform.csv", m=20, per=6)
        code, report = run(capsys, "publish", "--input", str(csv_path),
                           "--sa", "Illness", "--out", str(tmp_path / "pub"))
        assert code == 0
        assert report["bucket_sizes"] == [[3, 40]]
        assert report["buckets"] == 40

    def test_evaluate_under_tighter_thresholds_exits_two(self, capsys,
                                                         tmp_path):
        """The recheck's failing path: the report is still printed, with
        privacy_ok false, before the exit code says the release is not
        private under the thresholds given."""
        csv_path = write_uniform_csv(tmp_path / "ten.csv", m=5, per=2)
        out = tmp_path / "pub"
        flags = ["--input", str(csv_path), "--sa", "Illness", "--out",
                 str(out)]
        code, _ = run(capsys, "publish", *flags, "--theta", "2",
                      "--intercept", "0.3")
        assert code == 0
        assert main(["evaluate", *flags, "--theta", "0.5", "--intercept",
                     "0.05", "--pool", "20"]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["privacy_ok"] is False
        assert captured.err == ("error: published tables violate the "
                                "privacy thresholds\n")

    def test_evaluate_accepts_thresholds_at_a_third(self, capsys, tmp_path):
        # 0.3333333333 admits one copy per size-3 bucket under value_slots'
        # guard, so publish writes size-3 buckets; its own recheck must
        # accept them
        csv_path = write_uniform_csv(tmp_path / "thirds.csv", m=3, per=3)
        privacy = tmp_path / "privacy.csv"
        privacy.write_text("".join(f"v{code:02d},0.3333333333\n"
                                   for code in range(3)))
        out = tmp_path / "pub"
        flags = ["--input", str(csv_path), "--sa", "Illness",
                 "--privacy-file", str(privacy), "--out", str(out)]
        code, report = run(capsys, "publish", *flags)
        assert code == 0
        assert report["bucket_sizes"] == [[3, 3]]
        code, report = run(capsys, "evaluate", *flags, "--pool", "20",
                           "--selectivity", "1")
        assert code == 0
        assert report["privacy_ok"] is True

    @pytest.mark.parametrize("audit", [
        "{not json",
        '{"sigma": 1}',
        '{"sigma": 1, "buckets": {"1": ["no such value"]}}',
        '{"sigma": 1, "buckets": {}}',
        ragged_audit,
        foreign_fake_audit,
        stray_key_audit("99999"),
        stray_key_audit("01"),
        one_fake_audit,
        '{"sigma": false, "buckets": {}}',
        "[" * 100_000 + "]" * 100_000,
    ], ids=["bad-json", "no-buckets", "unknown-label", "sigma-mismatch",
            "ragged", "fake-not-in-bucket", "unknown-bucket",
            "non-canonical-key", "sigma-true", "sigma-false", "deep-nesting"])
    def test_malformed_audit_exits_four(self, capsys, tmp_path, audit):
        csv_path = write_uniform_csv(tmp_path / "uniform.csv")
        flags = ["--input", str(csv_path), "--sa", "Illness",
                 "--out", str(tmp_path / "pub")]
        code, _ = run(capsys, "publish", *flags, "--sigma", "2")
        assert code == 0
        path = tmp_path / "pub" / "fakes_audit.json"
        if not isinstance(audit, str):
            with open(path.with_name("st.csv"), newline="") as fh:
                st_rows = list(csv.reader(fh))
            audit = audit(json.loads(path.read_text()), st_rows)
        path.write_text(audit)
        code = main(["evaluate", *flags])
        err = capsys.readouterr().err
        assert code == 4
        assert "fakes_audit.json" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("edits", [
        {"st.csv": lambda lines: lines[:1] + [""] + lines[1:]},
        {"qit.csv": lambda lines: lines[:2] + [""] + lines[2:]},
        {"qit.csv": lambda lines: [""] + lines},
        {"qit.csv": lambda lines: lines[:1] + [lines[1] + ",x"] + lines[2:]},
        {"qit.csv": qit_bid_edit("0{}")},
        {"st.csv": st_bid_edit("+{}")},
        {"st.csv": st_bid_edit(" {}")},
        {"qit.csv": qit_bid_edit("{}_0")},
        {"st.csv": st_bid_edit("-0")},
        {"qit.csv": qit_bid_edit("\u0661")},
        {"qit.csv": last_bid_skipped(-1), "st.csv": last_bid_skipped(0)},
        {"qit.csv": qit_bid_edit("2000000")},
        {"qit.csv": qit_bid_edit("2000000"), "fakes_audit.json": None},
        {"qit.csv": every_qit_bid("-1"), "fakes_audit.json": None},
    ], ids=["st-blank-line", "qit-blank-line", "qit-blank-header",
            "qit-extra-field", "qit-bid-leading-zero", "st-bid-plus",
            "st-bid-space", "qit-bid-underscore", "st-bid-minus-zero",
            "qit-bid-arabic-digit", "empty-bucket", "qit-bid-huge",
            "qit-bid-huge-no-audit", "qit-bids-negative-no-audit"])
    def test_malformed_release_rows_exit_four(self, capsys, tmp_path,
                                              walkthrough_csv, edits):
        out = tmp_path / "pub"
        code, _ = run(capsys, *self.publish_args(walkthrough_csv, out))
        assert code == 0
        for name, edit in edits.items():
            path = out / name
            if edit is None:
                path.unlink()
            else:
                path.write_text(
                    "\n".join(edit(path.read_text().splitlines())) + "\n")
        code = main(["evaluate", "--input", str(walkthrough_csv),
                     "--sa", "Disease", *WALK_PRIVACY, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert f"{next(iter(edits))}:" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name,edit", [
        ("qit.csv", lambda row: row[:row.rindex(",")] + ",-1"),
        ("st.csv", lambda row: "-1" + row[row.index(","):]),
    ], ids=["qit", "st"])
    def test_negative_bucket_id_exits_four(self, capsys, tmp_path,
                                           walkthrough_csv, name, edit):
        out = tmp_path / "pub"
        code, _ = run(capsys, *self.publish_args(walkthrough_csv, out))
        assert code == 0
        path = out / name
        header, first, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, edit(first), *rest]) + "\n")
        code = main(["evaluate", "--input", str(walkthrough_csv),
                     "--sa", "Disease", *WALK_PRIVACY, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert "bucket ids are 1-based" in err
        assert len(err.strip().splitlines()) == 1

    def test_evaluate_foreign_tables_exits_three(self, capsys, tmp_path,
                                                 walkthrough_csv):
        out = tmp_path / "pub"
        code, _ = run(capsys, *self.publish_args(walkthrough_csv, out))
        assert code == 0
        other = tmp_path / "other.csv"
        other.write_text("Age,Zip,Disease\nx1,y1,HIV\nx2,y2,Flu\n")
        code, _ = run(capsys, "evaluate", "--input", str(other),
                      "--sa", "Disease", "--out", str(out))
        assert code == 3

    def test_evaluate_matches_qi_columns_by_name(self, capsys, tmp_path):
        out = tmp_path / "pub"
        code, _ = run(capsys, "publish", "--input",
                      str(write_qi_pair_csv(tmp_path / "a.csv")),
                      "--sa", "sa", "--out", str(out))
        assert code == 0
        swapped = write_qi_pair_csv(tmp_path / "b.csv", "q2,q1,sa")
        code, report = run(capsys, "evaluate", "--input", str(swapped),
                           "--sa", "sa", "--out", str(out), "--pool", "200")
        assert code == 0
        assert report["privacy_ok"] is True
        # the release with its QI columns put in the raw table's order
        pt = read_published(out)
        pt = dataclasses.replace(pt, qi_names=pt.qi_names[::-1],
                                 qi_codes=pt.qi_codes[:, ::-1].copy(),
                                 qi_domains=pt.qi_domains[::-1])
        table = ingest_csv(swapped, sa_column="sa")
        pool = gen_queries(table.qi_domains, table.sa_domain, 200, 0.05,
                           seed=0)
        assert report["re_mean"] == relative_error(pool, table, pt).re_mean

    def test_evaluate_keeps_repeated_qi_names_in_order(self, capsys,
                                                       tmp_path):
        raw = write_qi_pair_csv(tmp_path / "a.csv")
        raw.write_text(raw.read_text().replace("q1,q2,", "q,q,", 1))
        out = tmp_path / "pub"
        flags = ["--input", str(raw), "--sa", "sa", "--out", str(out)]
        assert run(capsys, "publish", *flags)[0] == 0
        code, report = run(capsys, "evaluate", *flags, "--pool", "200")
        assert code == 0
        table = ingest_csv(raw, sa_column="sa")
        pool = gen_queries(table.qi_domains, table.sa_domain, 200, 0.05,
                           seed=0)
        expected = relative_error(pool, table, read_published(out))
        assert report["re_mean"] == expected.re_mean

    @pytest.mark.parametrize("header,records", [
        ("q2,q3,sa", 3000), ("q2,q1,sa", 2999)], ids=["qi-names", "records"])
    def test_evaluate_other_raw_table_exits_three(self, capsys, tmp_path,
                                                  header, records):
        out = tmp_path / "pub"
        code, _ = run(capsys, "publish", "--input",
                      str(write_qi_pair_csv(tmp_path / "a.csv")),
                      "--sa", "sa", "--out", str(out))
        assert code == 0
        raw = write_qi_pair_csv(tmp_path / "b.csv", header, records)
        code = main(["evaluate", "--input", str(raw), "--sa", "sa",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["publish", "plot"])
    def test_table_without_qi_exits_three(self, capsys, tmp_path, command):
        """evaluate needs a QI column, so publish and plot refuse a table
        with none before they write anything."""
        csv_path = tmp_path / "sa_only.csv"
        csv_path.write_text("Illness\n" + "".join(f"v{i:02d}\n"
                                                   for i in range(20)))
        out = tmp_path / "release"
        code = main([command, "--input", str(csv_path), "--sa", "Illness",
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: need at least one QI attribute\n")
        assert not out.exists()

    def test_evaluate_missing_dir_exits_four(self, capsys, tmp_path,
                                             walkthrough_csv):
        code, _ = run(capsys, "evaluate", "--input", str(walkthrough_csv),
                      "--sa", "Disease", "--out", str(tmp_path / "nothing"))
        assert code == 4

    @pytest.mark.parametrize("name", ["qit.csv", "st.csv"])
    def test_missing_release_file_exits_four(self, capsys, tmp_path,
                                             walkthrough_csv, name):
        out = tmp_path / "pub"
        code, _ = run(capsys, *self.publish_args(walkthrough_csv, out))
        assert code == 0
        (out / name).unlink()
        code = main(["evaluate", "--input", str(walkthrough_csv),
                     "--sa", "Disease", *WALK_PRIVACY, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert f"cannot open {out / name}" in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("target", ["input.csv", "privacy.csv", "st.csv",
                                    "fakes_audit.json"])
def test_non_utf8_file_exits_four(capsys, tmp_path, walkthrough_csv, target):
    privacy = tmp_path / "privacy.csv"
    privacy.write_text("".join(f"d{c:02d},1.0\n" for c in range(14)))
    out = tmp_path / "pub"
    flags = ["--input", str(walkthrough_csv), "--sa", "Disease",
             "--privacy-file", str(privacy)]
    assert main(["publish", *flags, "--out", str(out)]) == 0
    bad = {"input.csv": walkthrough_csv, "privacy.csv": privacy,
           "st.csv": out / "st.csv",
           "fakes_audit.json": out / "fakes_audit.json"}[target]
    bad.write_bytes(bad.read_bytes() + b"d00,\xff\n")
    capsys.readouterr()
    code = main(["evaluate", *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4
    assert bad.name in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["analyze", "optimize", "publish"])
@pytest.mark.parametrize("flag", ["--theta", "--intercept"])
def test_nan_rule_flag_exits_three(capsys, tmp_path, walkthrough_csv,
                                   command, flag):
    code = main([command, "--input", str(walkthrough_csv), "--sa", "Disease",
                 flag, "nan", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert "non-negative" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, flag", [
    ("publish", "--seed"), ("evaluate", "--seed"), ("plot", "--seed"),
    ("dpdemo", "--seed"), ("publish", "--sigma")])
def test_negative_count_flag_exits_three(capsys, tmp_path, walkthrough_csv,
                                         command, flag):
    table_flags = ["--input", str(walkthrough_csv), "--sa", "Disease"]
    out = tmp_path / "out"
    if command == "evaluate":  # a real release, so only the flag can fail
        assert main(["publish", *table_flags, "--out", str(out)]) == 0
    written = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    argv = [] if command == "dpdemo" else [*table_flags, "--out", str(out)]
    code = main([command, *argv, flag, "-1"])
    err = capsys.readouterr().err
    assert code == 3
    assert flag in err and "non-negative" in err
    assert len(err.strip().splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == written


@pytest.mark.parametrize("command", ["analyze", "optimize", "publish"])
def test_nan_privacy_file_exits_four(capsys, tmp_path, walkthrough_csv,
                                     command):
    privacy = tmp_path / "privacy.csv"
    privacy.write_text("".join(f"d{c:02d},{'nan' if c == 3 else 1.0}\n"
                               for c in range(14)))
    code = main([command, "--input", str(walkthrough_csv), "--sa", "Disease",
                 "--privacy-file", str(privacy), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 4
    assert "privacy.csv" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("target", ["input.csv", "privacy.csv", "st.csv"])
def test_oversized_field_exits_four(capsys, tmp_path, walkthrough_csv, target):
    """A field past the csv module's 131072-character limit is an input
    fault like any other malformed file."""
    privacy = tmp_path / "privacy.csv"
    privacy.write_text("".join(f"d{c:02d},1.0\n" for c in range(14)))
    out = tmp_path / "pub"
    flags = ["--input", str(walkthrough_csv), "--sa", "Disease",
             "--privacy-file", str(privacy)]
    assert main(["publish", *flags, "--out", str(out)]) == 0
    bad = {"input.csv": walkthrough_csv, "privacy.csv": privacy,
           "st.csv": out / "st.csv"}[target]
    with open(bad, "a", encoding="utf-8") as fh:
        fh.write("x" * 140_000 + ",d00\n")
    capsys.readouterr()
    command = "analyze" if target == "input.csv" else "evaluate"
    code = main([command, *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4
    assert bad.name in err and len(err.strip().splitlines()) == 1


RELEASE_FILES = ("qit.csv", "st.csv", "fakes_audit.json")

# one byte edit: (kind, position, payload); digit runs and separators come
# often, so a mutation can lengthen a bucket id or split a row
BYTE_EDITS = st.tuples(
    st.sampled_from(["flip", "insert", "delete"]), st.integers(0, 2**16),
    st.one_of(st.binary(min_size=1, max_size=3),
              st.text("0123456789", min_size=1, max_size=10).map(str.encode),
              st.sampled_from([b",", b"\n", b'"', b"-"])))


def mutate(data: bytes, edits) -> bytes:
    """data with each (kind, position, payload) edit applied in turn; a
    flip xors the byte at position with the payload's first byte."""
    buf = bytearray(data)
    for kind, position, payload in edits:
        if kind == "insert":
            i = position % (len(buf) + 1)
            buf[i:i] = payload
        elif buf:
            i = position % len(buf)
            if kind == "delete":
                del buf[i]
            else:
                buf[i] ^= payload[0] or 1
    return bytes(buf)


@pytest.fixture(scope="module")
def sigma_two_release(tmp_path_factory):
    """(raw table path, bytes of each release file) of a 60-record release
    published with --sigma 2."""
    root = tmp_path_factory.mktemp("mutations")
    csv_path = write_uniform_csv(root / "uniform.csv", m=20, per=3)
    assert main(["publish", "--input", str(csv_path), "--sa", "Illness",
                 "--sigma", "2", "--out", str(root / "pub")]) == 0
    return csv_path, {name: (root / "pub" / name).read_bytes()
                      for name in RELEASE_FILES}


@settings(max_examples=250, deadline=None)
@given(name=st.sampled_from(RELEASE_FILES),
       edits=st.lists(BYTE_EDITS, min_size=1, max_size=4))
def test_mutated_release_exits_with_a_code(sigma_two_release, name, edits):
    """Whatever bytes a release file holds, evaluate ends in a documented
    exit code, never a traceback."""
    csv_path, files = sigma_two_release
    with tempfile.TemporaryDirectory() as out:
        for other, data in files.items():
            Path(out, other).write_bytes(
                mutate(data, edits) if other == name else data)
        code = main(["evaluate", "--input", str(csv_path), "--sa", "Illness",
                     "--out", out, "--pool", "20"])
    assert code in (0, 2, 3, 4)


FLAG_VALUES = ["-1", "0", "1", "2", "3", str(2**31 - 1), str(2**31 + 1),
               str(2**63 - 1), str(2**63), str(2**63 + 1), str(2**64),
               str(10**30)]


@pytest.fixture(scope="module")
def flag_fuzz_csv(tmp_path_factory):
    return write_uniform_csv(tmp_path_factory.mktemp("flags") / "uniform.csv",
                             m=20, per=3)


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from([("optimize",), ("publish",),
                                ("publish", "--mode", "multi")]),
       flags=st.dictionaries(st.sampled_from(["--sigma", "--seed",
                                              "--max-size"]),
                             st.sampled_from(FLAG_VALUES)))
def test_integer_flags_exit_with_a_code(flag_fuzz_csv, command, flags):
    """Any integer, however large, given to --sigma, --seed or --max-size
    ends in a documented exit code, never a traceback."""
    if command[0] == "optimize":
        flags.pop("--sigma", None)
        flags.pop("--seed", None)
    with tempfile.TemporaryDirectory() as out:
        code = main([*command, "--input", str(flag_fuzz_csv), "--sa",
                     "Illness", "--out", str(Path(out, "release")),
                     *(part for item in flags.items() for part in item)])
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("sigma", [2**63 - 1, 2**63, 10**30])
def test_huge_sigma_exits_three(capsys, flag_fuzz_csv, tmp_path, sigma):
    """A sigma too large for int64 arithmetic is refused like any other
    sigma the buckets cannot take, still counting their admissible fakes."""
    code = main(["publish", "--input", str(flag_fuzz_csv), "--sa", "Illness",
                 "--sigma", str(sigma), "--out", str(tmp_path / "p")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == (f"error: bucket 1 has only 17 admissible fake values but "
                   f"sigma={sigma}\n")


class TestDpdemo:

    def test_predicted_mean_golden(self, capsys):
        code, report = run(capsys, "dpdemo", "--epsilon", "0.1",
                           "--x", "100", "--ratio", "0.5",
                           "--samples", "20000")
        assert code == 0
        row = report["rows"][0]
        assert row["predicted_mean"] == pytest.approx(0.51)
        assert abs(row["sample_mean"] - 0.51) < 0.02
        assert report["scale"] == pytest.approx(10.0)

    def test_default_sweep_shrinks(self, capsys):
        code, report = run(capsys, "dpdemo", "--samples", "20000")
        assert code == 0
        variances = [row["sample_var"] for row in report["rows"]]
        assert len(variances) == 4
        assert variances[0] > variances[-1]

    def test_gate_violation_exits_three(self, capsys):
        code, _ = run(capsys, "dpdemo", "--epsilon", "0.1", "--x", "50")
        assert code == 3

    def test_tiny_epsilon_predicts_finite_moments(self, capsys):
        """scale*scale overflows at epsilon 1e-300, and inf/inf printed
        NaN, which is not JSON."""
        assert main(["dpdemo", "--epsilon", "1e-300", "--x", "1e302",
                     "--samples", "10"]) == 0

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        row = report["rows"][0]
        assert math.isfinite(row["predicted_mean"])
        assert math.isfinite(row["predicted_var"])

    @pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf"])
    def test_bad_epsilon_exits_three(self, capsys, epsilon):
        """An infinite epsilon would print "Infinity", which is not JSON."""
        assert main(["dpdemo", "--epsilon", epsilon, "--samples", "10"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: epsilon must be finite and positive")


@pytest.mark.parametrize("mode", ["two", "multi"])
@pytest.mark.parametrize("sigma", [0, 2])
def test_publish_reports_the_search_groups(capsys, tmp_path, mode, sigma):
    """publish reads bucket_sizes and loss off the release; they must be
    those of the groups the search chose."""
    table = gen_synthetic(2000, 50, 0.0, [4, 4], seed=5)
    code, report = run(
        capsys, "publish", "--input",
        str(write_table_csv(tmp_path / "t.csv", table)), "--sa", "sa",
        "--theta", "8", "--intercept", "0.04", "--mode", mode,
        "--sigma", str(sigma), "--out", str(tmp_path / "pub"))
    assert code == 0
    h = histogram(table)
    spec = linear_privacy_spec(h, 8.0, 0.04)
    cfg = SearchConfig.for_spec(spec, max_size=50)
    if mode == "two":
        groups = list(two_size_bucketing(h, spec, cfg).setting)
    else:
        groups = [g for _, g in multi_size_bucketing(table, None, spec, cfg)]
    sizes = collections.Counter()
    for group in groups:
        sizes[group.size] += group.count
    assert report["bucket_sizes"] == [[s, c] for s, c in sorted(sizes.items())
                                      if c > 0]
    assert report["loss"] == loss_of(groups)


def test_readme_library_block_runs(tmp_path, monkeypatch):
    """The README's Library code publishes a table that reads back whole."""
    readme = (Path(fprivacy.__file__).parents[2] / "README.md").read_text()
    block = readme.split("## Library", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    table = dataclasses.replace(gen_synthetic(600, 20, 0.0, [4, 3], seed=2),
                                sa_name="Disease")
    write_table_csv(tmp_path / "patients.csv", table)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    pt = read_published(tmp_path / "published")
    assert len(pt) == len(table)
    assert pt.sa_name == "Disease"
    assert sorted(pt.st_codes.tolist()) == sorted(table.sa_codes.tolist())


class TestPlot:

    def test_writes_gnuplot_files(self, capsys, tmp_path, walkthrough_csv):
        out = tmp_path / "plots"
        code, report = run(capsys, "plot", "--input", str(walkthrough_csv),
                           "--sa", "Disease", "--thetas", "2,4,8",
                           "--intercept", "0.05", "--pool", "100",
                           "--out", str(out))
        assert code == 0
        assert report["mse"] == sorted(report["mse"], reverse=True)
        for name in ("mse_vs_theta.dat", "re_vs_theta.dat"):
            lines = (out / name).read_text().splitlines()
            assert lines[0].startswith("#")
            assert len(lines) == 4

    def test_one_record_table_reports_zero_mse(self, capsys, tmp_path):
        csv_path = write_uniform_csv(tmp_path / "one.csv", m=1, per=1)
        code, report = run(capsys, "plot", "--input", str(csv_path),
                           "--sa", "Illness", "--thetas", "2,8",
                           "--pool", "10", "--out", str(tmp_path / "p"))
        assert code == 0
        assert report["mse"] == [0.0, 0.0]

    def test_bad_theta_list_exits_three(self, capsys, tmp_path,
                                        walkthrough_csv):
        code, _ = run(capsys, "plot", "--input", str(walkthrough_csv),
                      "--sa", "Disease", "--thetas", "2,zebra",
                      "--out", str(tmp_path / "p"))
        assert code == 3

    def test_empty_theta_list_exits_three(self, capsys, tmp_path,
                                          walkthrough_csv):
        assert main(["plot", "--input", str(walkthrough_csv), "--sa",
                     "Disease", "--thetas", ",",
                     "--out", str(tmp_path / "p")]) == 3
        assert capsys.readouterr().err == \
            "error: need at least one theta value\n"
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("extra, code, prefix", [
        (["--thetas", "2,0.001", "--intercept", "0.001"], 2,
         "error: theta=0.001: thresholds unachievable"),
        (["--max-size", "2"], 3, "error: theta=2.0: maximum bucket size 2")])
    def test_failure_names_its_theta(self, capsys, tmp_path, walkthrough_csv,
                                     extra, code, prefix):
        """An unachievable spec or an empty size range names the theta it
        failed at, as a failed search does, and keeps its exit code."""
        assert main(["plot", "--input", str(walkthrough_csv), "--sa",
                     "Disease", *extra, "--out", str(tmp_path / "p")]) == code
        assert capsys.readouterr().err.startswith(prefix)


class TestUsage:

    def test_unknown_command_exits_three(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_missing_required_flag_exits_three(self, capsys):
        assert main(["analyze", "--sa", "Disease"]) == 3

    @pytest.mark.parametrize("command", ["optimize", "publish", "plot"])
    def test_min_size_is_an_unknown_flag(self, capsys, tmp_path,
                                         walkthrough_csv, command):
        """The search range starts at the least size the thresholds admit;
        no flag sets it."""
        code = main([command, "--input", str(walkthrough_csv), "--sa",
                     "Disease", "--min-size", "3",
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "--min-size" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    """numpy is the only runtime dependency, so importing the CLI must not
    load scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(fprivacy.__file__).parents[1]))
    probe = "import sys, fprivacy.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_brute_mode_leaves_scipy_unloaded(tmp_path):
    """``optimize --mode brute`` checks feasibility with numpy alone."""
    env = dict(os.environ, PYTHONPATH=str(Path(fprivacy.__file__).parents[1]))
    argv = ["optimize", "--mode", "brute", "--input",
            str(write_walkthrough_csv(tmp_path / "w.csv")), "--sa", "Disease",
            *WALK_PRIVACY, "--out", str(tmp_path / "report.json")]
    probe = ("import sys; from fprivacy.cli import main; "
             f"print(main({argv!r}), 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "False"]
    assert json.loads((tmp_path / "report.json").read_text())["loss"] == 250


def test_evaluate_leaves_numpy_ma_unloaded(tmp_path):
    """``publish`` + ``evaluate`` use plain arrays only, so they must not pay
    for importing numpy.ma (a plain np.unique call loads it)."""
    env = dict(os.environ, PYTHONPATH=str(Path(fprivacy.__file__).parents[1]))
    flags = ["--input", str(write_uniform_csv(tmp_path / "u.csv")),
             "--sa", "Illness", "--out", str(tmp_path / "pub")]
    probe = ("import sys; from fprivacy.cli import main; "
             f"print(main(['publish', '--sigma', '2', *{flags!r}]), "
             f"main(['evaluate', *{flags!r}]), 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split()[-3:] == ["0", "0", "False"]


def test_evaluate_loads_only_core_publish_and_metrics(tmp_path):
    """Importing the CLI and running ``evaluate`` load no search, no
    assignment, no random streams and no Laplace simulator: with no
    bytecode cache, every module loaded is compiled on each run."""
    env = dict(os.environ, PYTHONPATH=str(Path(fprivacy.__file__).parents[1]))
    flags = ["--input", str(write_uniform_csv(tmp_path / "u.csv")),
             "--sa", "Illness", "--out", str(tmp_path / "pub")]
    assert main(["publish", "--sigma", "2", *flags]) == 0
    probe = ("import sys; import fprivacy.cli as cli; "
             "loaded = lambda: sorted(name for name in sys.modules "
             "if name.startswith('fprivacy')); print(*loaded()); "
             f"print(cli.main(['evaluate', *{flags!r}])); print(*loaded())")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    imported = "fprivacy fprivacy.cli fprivacy.core fprivacy.publish"
    assert (out[0], out[-2]) == (imported, "0")
    assert out[-1] == "fprivacy fprivacy.cli fprivacy.core fprivacy.metrics " \
        "fprivacy.publish"


def test_publish_loads_neither_metrics_nor_dpsim(tmp_path):
    """``publish`` measures no utility and simulates no noise."""
    env = dict(os.environ, PYTHONPATH=str(Path(fprivacy.__file__).parents[1]))
    flags = ["--input", str(write_uniform_csv(tmp_path / "u.csv")),
             "--sa", "Illness", "--out", str(tmp_path / "pub")]
    probe = ("import sys; from fprivacy.cli import main; "
             f"print(main(['publish', '--sigma', '2', *{flags!r}]), "
             "'fprivacy.metrics' in sys.modules, "
             "'fprivacy.dpsim' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split()[-3:] == ["0", "False", "False"]


def probe_env(**overrides) -> dict:
    """A child's environment: this one without OPENBLAS_NUM_THREADS, which
    importing fprivacy.cli sets here, and with the given overrides."""
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(fprivacy.__file__).parents[1])
    return {**env, **overrides}


linux_threads = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                   reason="counts threads in /proc/self/task")
THREAD_PROBE = ("import os, fprivacy.cli; print(len(os.listdir("
                "'/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")


@linux_threads
def test_cli_import_runs_one_thread():
    """fprivacy calls no BLAS routine, so the CLI keeps OpenBLAS from
    starting a thread per core when numpy loads."""
    out = subprocess.run([sys.executable, "-c", THREAD_PROBE],
                         env=probe_env(), check=True, capture_output=True,
                         text=True).stdout
    assert out.split() == ["1", "1"]


@linux_threads
def test_cli_import_keeps_a_set_thread_count():
    out = subprocess.run([sys.executable, "-c", THREAD_PROBE],
                         env=probe_env(OPENBLAS_NUM_THREADS="2"), check=True,
                         capture_output=True, text=True).stdout
    assert out.split()[-1] == "2"


def test_library_import_leaves_numpy_unloaded():
    """``import fprivacy`` loads core, and numpy, on first use of a
    re-exported name, so a library user keeps numpy's own threading."""
    probe = ("import sys, fprivacy; print('numpy' in sys.modules); "
             "import fprivacy.core as core; print(all(getattr(fprivacy, name) "
             "is getattr(core, name) for name in fprivacy.__all__), "
             "'ingest_csv' in fprivacy.__all__, "
             "hasattr(fprivacy, 'no_such_name'))")
    out = subprocess.run([sys.executable, "-c", probe], env=probe_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["False", "True", "True", "False"]


def test_benchmark_env_report_runs():
    """The benchmark starts every run with ``perfbench/stages.py env``, which
    imports ``fprivacy._accel``; it must keep working on this checkout."""
    src = Path(fprivacy.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, str(src.parent / "perfbench" / "stages.py"), "env"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["jit_enabled"] is False


def test_evaluate_re_mean_repeats_across_processes(capsys, tmp_path):
    """The benchmark compares the re_mean of an in-process replay with the
    CLI's by ==, so two fresh processes, with different hash seeds, must
    print the same float for one padded release."""
    table = gen_synthetic(2000, 50, 0.0, [4, 4], seed=5)
    assert true_count_cube(table) is not None  # the indexed path runs
    flags = ["--input", str(write_table_csv(tmp_path / "t.csv", table)),
             "--sa", "sa", "--out", str(tmp_path / "release")]
    assert run(capsys, "publish", *flags, "--sigma", "1")[0] == 0
    values = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(fprivacy.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "fprivacy.cli", "evaluate", *flags,
             "--pool", "200"], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["sigma"] == 1
        values.append(repr(report["re_mean"]))
    assert values[0] == values[1]


def test_benchmark_gate_slack_matches_floor_eps():
    """The benchmark's stdlib-only release check floors counts with its own
    copy of the package's threshold guard; the two must stay equal."""
    path = Path(fprivacy.__file__).parents[2] / "perfbench" / "gate.py"
    gate = runpy.run_path(str(path), run_name="perfbench_gate")
    assert gate["COUNT_SLACK"] == fprivacy.core.FLOOR_EPS


@pytest.mark.parametrize("mode, sigma, shape", [
    ("two", 2, (4000, 300, 0.0, [4, 4], 3)),
    ("multi", 0, (3000, 40, 0.9, [4, 4], 2)),
])
def test_benchmark_replay_matches_the_cli(capsys, tmp_path, mode, sigma,
                                          shape):
    """``perfbench/stages.py replay --trace 1`` reads attributes of the
    package's results and wraps module functions by name; it must run on
    this checkout and agree with the CLI on loss, re_mean and both files."""
    *args, seed = shape
    table = gen_synthetic(*args, seed=seed)
    csv_path = write_table_csv(tmp_path / "input.csv", table)
    rule = ["--theta", "2", "--intercept", "0.04"]
    flags = ["--input", str(csv_path), "--sa", "sa", *rule]
    code, published = run(capsys, "publish", *flags, "--mode", mode,
                          "--sigma", str(sigma), "--out", str(tmp_path / "cli"))
    assert code == 0
    code, evaluated = run(capsys, "evaluate", *flags, "--out",
                          str(tmp_path / "cli"), "--pool", "200",
                          "--selectivity", "0.05")
    assert code == 0

    src = Path(fprivacy.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, str(src.parent / "perfbench" / "stages.py"),
         "replay", "--trace", "1", "--input", str(csv_path),
         "--out", str(tmp_path / "replay"),
         "--spans", str(tmp_path / "spans.json"), "--mode", mode,
         "--sigma", str(sigma), *rule, "--pool", "200",
         "--selectivity", "0.05"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    replay = json.loads(done.stdout.splitlines()[-1])
    assert replay["loss"] == published["loss"]
    assert replay["re_mean"] == evaluated["re_mean"]
    for name in ("qit", "st"):
        digest = hashlib.sha256(
            (tmp_path / "cli" / f"{name}.csv").read_bytes()).hexdigest()
        assert replay[f"{name}_sha256"] == digest
    assert {"optimize.search", "validate.partition", "metrics.answer_true",
            "metrics.answer_estimated"} <= set(replay["spans"])
