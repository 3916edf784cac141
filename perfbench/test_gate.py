"""The benchmark's correctness gate rejects bad round trips.

    python3 -m pytest -q perfbench/test_gate.py
"""

import json
import sys

import gate
import run

# four records, two of them x; theta=0, intercept=1/2 caps every value at
# half of any bucket
INPUT = "attr0,sa\nq0,x\nq1,x\nq2,y\nq3,z\n"


def write_release(out, qit_bids, st_rows):
    out.mkdir()
    qi = ["q0", "q1", "q2", "q3"]
    (out / "qit.csv").write_text(
        "attr0,BID\n" + "".join(f"{q},{b}\n" for q, b in zip(qi, qit_bids)))
    (out / "st.csv").write_text(
        "BID,sa\n" + "".join(f"{b},{v}\n" for b, v in st_rows))


def source(tmp_path):
    path = tmp_path / "input.csv"
    path.write_text(INPUT)
    src = gate.load_source(path, "sa")
    return src, src.thresholds(theta=0.0, intercept=0.5)


def ok_child(report):
    return run.Child(code=0, wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0,
                     stdout=json.dumps(report), stderr="")


def test_valid_release_passes(tmp_path):
    src, thresholds = source(tmp_path)
    write_release(tmp_path / "out", [1, 2, 1, 2],
                  [(1, "y"), (1, "x"), (2, "z"), (2, "x")])
    problems = gate.check_roundtrip(
        ok_child({"loss": 2}), ok_child({"loss": 2, "privacy_ok": True}),
        lambda: gate.recheck_release(src, tmp_path / "out", thresholds, 0))
    assert problems == []


def test_over_threshold_release_fails(tmp_path):
    src, thresholds = source(tmp_path)
    # both x records share bucket 1: x is 2/2 of it, over its cap of 1/2,
    # even though evaluate (hand-made here) claims the release is private
    write_release(tmp_path / "out", [1, 1, 2, 2],
                  [(1, "x"), (1, "x"), (2, "y"), (2, "z")])
    problems = gate.check_roundtrip(
        ok_child({"loss": 2}), ok_child({"loss": 2, "privacy_ok": True}),
        lambda: gate.recheck_release(src, tmp_path / "out", thresholds, 0))
    assert any("over its threshold" in p for p in problems), problems


def test_nonzero_exit_fails(tmp_path):
    src, thresholds = source(tmp_path)
    write_release(tmp_path / "out", [1, 2, 1, 2],
                  [(1, "y"), (1, "x"), (2, "z"), (2, "x")])
    crashed = run.run_child(
        [sys.executable, "-c", "import sys; print('boom', file=sys.stderr);"
         " sys.exit(3)"], env=None, log=tmp_path / "crash")
    assert crashed.code == 3
    problems = gate.check_roundtrip(
        crashed, ok_child({"loss": 2, "privacy_ok": True}),
        lambda: gate.recheck_release(src, tmp_path / "out", thresholds, 0))
    assert problems == ["publish exited 3: boom"]


def test_gate_command_reports_over_threshold(tmp_path, capsys):
    path = tmp_path / "input.csv"
    path.write_text(INPUT)
    write_release(tmp_path / "out", [1, 1, 2, 2],
                  [(1, "x"), (1, "x"), (2, "y"), (2, "z")])
    assert gate.main(["--input", str(path), "--sa", "sa",
                      "--release", str(tmp_path / "out"), "--theta", "0",
                      "--intercept", "0.5", "--sigma", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["loss"] == 2
    assert any("over its threshold" in p for p in report["problems"])
