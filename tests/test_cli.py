"""End-to-end tests of the command-line pipeline and its exit codes."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fprivacy
from fprivacy.cli import main
from fprivacy.metrics import gen_synthetic

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


@pytest.fixture
def walkthrough_csv(tmp_path):
    return write_walkthrough_csv(tmp_path / "walkthrough.csv")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


WALK_PRIVACY = ["--theta", "2", "--intercept", "0.05"]


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


class TestOptimize:

    def test_two_size_walkthrough(self, capsys, walkthrough_csv):
        code, report = run(capsys, "optimize", "--input",
                           str(walkthrough_csv), "--sa", "Disease",
                           *WALK_PRIVACY, "--mode", "two")
        assert code == 0
        assert report["loss"] <= 250
        assert report["buckets"] == [[4, 9], [14, 1]]
        assert report["mse"] == pytest.approx(250 / 49)
        assert report["pc_splits"] == 0

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
    ], ids=["bad-json", "no-buckets", "unknown-label", "sigma-mismatch"])
    def test_malformed_audit_exits_four(self, capsys, tmp_path,
                                        walkthrough_csv, audit):
        out = tmp_path / "pub"
        code, _ = run(capsys, *self.publish_args(walkthrough_csv, out))
        assert code == 0
        (out / "fakes_audit.json").write_text(audit)
        code = main(["evaluate", "--input", str(walkthrough_csv),
                     "--sa", "Disease", *WALK_PRIVACY, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name,edit", [
        ("st.csv", lambda lines: lines[:1] + [""] + lines[1:]),
        ("qit.csv", lambda lines: lines[:2] + [""] + lines[2:]),
        ("qit.csv", lambda lines: [""] + lines),
        ("qit.csv", lambda lines: lines[:1] + [lines[1] + ",x"] + lines[2:]),
    ], ids=["st-blank-line", "qit-blank-line", "qit-blank-header",
            "qit-extra-field"])
    def test_malformed_release_rows_exit_four(self, capsys, tmp_path,
                                              walkthrough_csv, name, edit):
        out = tmp_path / "pub"
        code, _ = run(capsys, *self.publish_args(walkthrough_csv, out))
        assert code == 0
        path = out / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        code = main(["evaluate", "--input", str(walkthrough_csv),
                     "--sa", "Disease", *WALK_PRIVACY, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert f"{name}:" in err and len(err.strip().splitlines()) == 1

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

    def test_evaluate_missing_dir_exits_four(self, capsys, tmp_path,
                                             walkthrough_csv):
        code, _ = run(capsys, "evaluate", "--input", str(walkthrough_csv),
                      "--sa", "Disease", "--out", str(tmp_path / "nothing"))
        assert code == 4


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

    def test_bad_theta_list_exits_three(self, capsys, tmp_path,
                                        walkthrough_csv):
        code, _ = run(capsys, "plot", "--input", str(walkthrough_csv),
                      "--sa", "Disease", "--thetas", "2,zebra",
                      "--out", str(tmp_path / "p"))
        assert code == 3


class TestUsage:

    def test_unknown_command_exits_three(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_missing_required_flag_exits_three(self, capsys):
        assert main(["analyze", "--sa", "Disease"]) == 3


def test_cli_import_leaves_scipy_unloaded():
    """Only the max-flow oracle (``optimize --mode brute``) needs scipy, so
    importing the CLI must not load it."""
    env = dict(os.environ, PYTHONPATH=str(Path(fprivacy.__file__).parents[1]))
    probe = "import sys, fprivacy.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
