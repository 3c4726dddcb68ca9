import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import parapt.errors
import parapt.problems
from helpers import skewed_example2
from parapt.cli import (CSV_HEADER, csv_lines, main, markdown_lines,
                        read_config, summary_lines)
from parapt.errors import ConvergenceRow, StudyResult


def sample_rows():
    return [
        ConvergenceRow(1, 8, 0.125, {"L1": 0.1, "L2": 0.2, "Linf": 0.3},
                       {"L1": None, "L2": None, "Linf": None}),
        ConvergenceRow(2, 16, 0.0625, {"L1": 0.025, "L2": 0.05, "Linf": 0.075},
                       {"L1": 2.0, "L2": 2.0, "Linf": 2.0}),
    ]


def test_csv_lines_layout():
    lines = csv_lines(sample_rows())
    assert lines[0] == CSV_HEADER
    assert lines[1] == "1,8,0.125,0.1,0.2,0.3,,,"
    assert lines[2] == "2,16,0.0625,0.025,0.05,0.075,2,2,2"


def test_markdown_lines_layout():
    res = StudyResult("example1", 9, 1e-5, [8, 16],
                      tables={"control": sample_rows()})
    md = markdown_lines(res)
    assert md[0] == "# Convergence tables: example1"
    assert "## control" in md
    data = [line for line in md if line.startswith("| 1 ")]
    assert data and data[0].endswith("| / | / | / |")
    assert any("2.00 | 2.00 | 2.00" in line for line in md)


def test_summary_lines_records():
    res = StudyResult("example1", 9, 1e-5, [8, 16],
                      tables={"control": sample_rows()},
                      iterations=[4, 5], wall_times=[0.1, 0.2],
                      failures={32: "boom"})
    recs = [json.loads(line) for line in summary_lines(res)]
    assert [r["iterations"] for r in recs[:2]] == [4, 5]
    assert recs[-1] == {"problem": "example1", "table": None, "M": 32,
                        "failure": "boom"}


def test_read_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# study setup\nexample = 2\n\nlevels=4,8  # coarse\n")
    assert read_config(cfg) == {"example": "2", "levels": "4,8"}
    cfg.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        read_config(cfg)


def run_ok(tmp_path, name, extra):
    out = tmp_path / name
    rc = main(["--nh", "9", "--out", str(out)] + extra)
    assert rc == 0
    return out


def test_main_writes_study_outputs(tmp_path):
    out = run_ok(tmp_path, "a", ["--example", "1", "--levels", "4,8"])
    names = sorted(p.name for p in out.iterdir())
    assert names == ["adjoint.csv", "control.csv", "state.csv",
                     "state_projected.csv", "summary.jsonl"]
    lines = (out / "control.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].endswith(",,,")          # no orders on the first level
    recs = [json.loads(s) for s in (out / "summary.jsonl").read_text()
            .splitlines()]
    assert len(recs) == 8                     # four tables, two levels
    assert all(r["iterations"] >= 3 for r in recs)


def test_main_is_deterministic(tmp_path):
    args = ["--example", "1", "--levels", "4,8"]
    a = run_ok(tmp_path, "a", args)
    b = run_ok(tmp_path, "b", args)
    for name in ("control.csv", "state.csv", "state_projected.csv",
                 "adjoint.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_main_manufactured_markdown(tmp_path):
    out = run_ok(tmp_path, "m", ["--example", "manufactured",
                                 "--levels", "4,8", "--format", "both"])
    names = sorted(p.name for p in out.iterdir())
    assert "control.csv" not in names         # no control to compare
    assert {"state.csv", "state_projected.csv", "adjoint.csv",
            "tables.md", "summary.jsonl"} <= set(names)
    md = (out / "tables.md").read_text().splitlines()
    assert md[0] == "# Convergence tables: manufactured"


def test_main_usage_errors(tmp_path):
    out = str(tmp_path / "x")
    assert main(["--example", "3", "--out", out]) == 1
    assert main(["--example", "1", "--levels", "a,b", "--out", out]) == 1
    assert main(["--example", "1", "--levels", "0", "--out", out]) == 1
    assert main(["--example", "1", "--format", "yaml", "--out", out]) == 1
    assert main(["--example", "1", "--nh", "abc", "--out", out]) == 1
    assert main(["--example", "1", "--threshold", "abc", "--out", out]) == 1
    assert main(["--example", "1", "--alpha", "x", "--out", out]) == 1
    assert main(["--example", "1", "--bogus", "1", "--out", out]) == 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("threshold=abc\n")
    assert main(["--config", str(cfg), "--out", out]) == 1
    cfg.write_text("just words\n")
    assert main(["--config", str(cfg), "--out", out]) == 1
    cfg.write_text("example=1\nlevels=4\nnhh=129\n")   # unknown key
    assert main(["--config", str(cfg), "--nh", "9", "--out", out]) == 1
    assert not (tmp_path / "x" / "summary.jsonl").exists()


def test_main_reports_solver_failure(tmp_path, monkeypatch):
    """A level whose fixed-point budget runs out is a solver failure."""
    real = parapt.errors.fixed_point_solve
    monkeypatch.setattr(parapt.errors, "fixed_point_solve",
                        lambda dp, grid, **kw: real(dp, grid, **{
                            **kw, "max_iters": 1}))
    out = tmp_path / "f"
    rc = main(["--example", "1", "--levels", "4", "--nh", "9",
               "--out", str(out)])
    assert rc == 2
    last = (out / "summary.jsonl").read_text().splitlines()[-1]
    assert "failure" in json.loads(last)
    # a study whose every level fails still writes every table, empty
    for name in ("control", "state", "state_projected", "adjoint"):
        assert (out / f"{name}.csv").read_text() == CSV_HEADER + "\n"


def test_main_records_solver_error_per_level(tmp_path, monkeypatch):
    """A linear-algebra error at the first level is one failure record; the
    second level is solved and its rows carry its own sweep count."""
    real = parapt.errors.fixed_point_solve

    def solve(dp, grid, **kwargs):
        if grid.M == 4:
            raise np.linalg.LinAlgError("leading minor not positive definite")
        return real(dp, grid, **kwargs)

    monkeypatch.setattr(parapt.errors, "fixed_point_solve", solve)
    out = tmp_path / "e"
    rc = main(["--example", "1", "--levels", "4,8", "--nh", "9",
               "--out", str(out)])
    assert rc == 2
    recs = [json.loads(line)
            for line in (out / "summary.jsonl").read_text().splitlines()]
    assert recs[-1] == {"problem": "example1", "table": None, "M": 4,
                        "failure": "LinAlgError: leading minor not "
                                   "positive definite"}
    rows = [r for r in recs[:-1] if r["table"] == "control"]
    assert [r["M"] for r in rows] == [8]
    assert isinstance(rows[0]["iterations"], int) and rows[0]["iterations"] > 0
    assert len((out / "control.csv").read_text().splitlines()) == 2


def test_main_selftest(capsys):
    assert main(["--selftest"]) == 0
    got = capsys.readouterr().out
    assert "[PASS] example1" in got and "[PASS] manufactured" in got


def test_main_selftest_failure_exits_2(capsys, monkeypatch):
    def fail(spec):
        raise AssertionError("self-test residuals too large")

    monkeypatch.setattr(parapt.problems, "self_test", fail)
    assert main(["--selftest"]) == 2
    got = capsys.readouterr().out
    assert "[FAIL] example1: self-test residuals too large" in got
    assert "[PASS]" not in got


def test_main_selftest_fails_on_a_wrong_derivative(capsys, monkeypatch):
    """The check is made on the problem data, not on a stand-in failure:
    example 2 with its load built from a y' 1% too large fails."""
    monkeypatch.setattr(parapt.problems, "example2",
                        lambda: skewed_example2(dy_scale=1.01))
    assert main(["--selftest"]) == 2
    got = capsys.readouterr().out
    assert "[PASS] example1" in got and "[PASS] manufactured" in got
    assert "[FAIL] example2: self-test residuals too large" in got


def test_import_cli_leaves_scipy_optimize_unloaded():
    """parapt finds its clamp kinks without scipy.optimize, whose import
    alone adds about 17 MiB of resident memory to a run."""
    src = str(Path(parapt.problems.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, parapt.cli; "
         "print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_main_uncreatable_out_exits_1(tmp_path, capsys):
    """An --out below a regular file cannot be created, even by root."""
    (tmp_path / "f").write_text("")
    out = tmp_path / "f" / "out"
    assert main(["--example", "1", "--levels", "4", "--nh", "9",
                 "--out", str(out)]) == 1
    assert f"cannot write to {out}" in capsys.readouterr().err


def test_main_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example=2\nlevels=4\nnh=9\n")
    out = tmp_path / "c"
    rc = main(["--config", str(cfg), "--example", "1", "--out", str(out)])
    assert rc == 0
    assert "problem example1: levels [4], 9 nodes" in capsys.readouterr().out


def test_main_alpha_override_warns(tmp_path, capsys):
    out = tmp_path / "w"
    rc = main(["--example", "1", "--levels", "4", "--nh", "9",
               "--alpha", "0.5", "--out", str(out)])
    assert rc == 0
    assert "alpha override" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
def test_main_rejects_bad_alpha(tmp_path, capsys, alpha):
    """alpha = 0 used to run NaN sweeps and alpha < 0 to solve a nonconvex
    problem; both, and non-finite values, are usage errors now."""
    out = tmp_path / "a"
    rc = main(["--example", "1", "--levels", "4", "--nh", "9",
               f"--alpha={alpha}", "--out", str(out)])
    assert rc == 1
    assert "alpha must be positive and finite" in capsys.readouterr().err
    assert not (out / "summary.jsonl").exists()


def test_main_rejects_bad_alpha_from_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example=2\nlevels=4\nnh=9\nalpha=0\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "c")]) == 1


@pytest.mark.parametrize("flags, message", [
    (["--nh", "2"], "nh must be at least 3"),
    (["--levels", "4,1"], "invalid level list"),
    (["--threshold", "-1"], "threshold must be non-negative and finite"),
    (["--threshold", "nan"], "threshold must be non-negative and finite"),
    (["--threshold", "inf"], "threshold must be non-negative and finite"),
    (["--levels", "8,8"], "invalid level list"),
    (["--levels", "16,8"], "invalid level list"),
])
def test_main_rejects_bad_study_input(tmp_path, capsys, flags, message):
    """--nh 2 used to report all-zero errors as success, --levels 1 to end
    in a traceback, a negative or NaN threshold to burn 100 sweeps per
    level, and a repeated or decreasing level list to exit 0 with
    duplicate rows or orders taken from coarsening."""
    out = tmp_path / "b"
    rc = main(["--example", "1", "--levels", "4", "--nh", "9",
               "--out", str(out)] + flags)
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (out / "summary.jsonl").exists()

