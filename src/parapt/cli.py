"""Command-line driver producing convergence tables.

Runs one benchmark problem over a sequence of time grids and writes one
CSV per error table, an aligned markdown rendering, and a line-delimited
summary with iteration counts and wall times.  CSV content depends only
on the chosen flags, so repeat runs are byte-identical.

Flags and ``--config`` lines meet one argparse parser: each line
``key=value`` becomes the token ``--key=value``, placed ahead of the
command line so explicit flags win.  Flags and keys are spelled in full.

Exit codes: 0 on success, 1 on usage errors (an unknown flag, config key,
problem or format, a malformed value or config file, a level list that
has a level below 2 or does not increase strictly, fewer than 3 nodes per
side, a negative or non-finite threshold, non-positive or non-finite
alpha, unwritable output directory), 2 on solver failures.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import problems
from .errors import run_study

CSV_HEADER = "level,M,k,err_L1,err_L2,err_Linf,eoc_L1,eoc_L2,eoc_Linf"
DEFAULT_LEVELS = {"1": [10, 20, 40, 80, 160], "2": [8, 16, 32, 64, 128, 256],
                  "manufactured": [8, 16, 32, 64, 128]}
PROBLEMS = {"1": problems.example1, "2": problems.example2,
            "manufactured": problems.manufactured_smooth}


def _fmt(x):
    return f"{x:.8g}"


def csv_lines(rows):
    lines = [CSV_HEADER]
    for r in rows:
        eocs = [("" if r.eoc[key] is None else _fmt(r.eoc[key]))
                for key in ("L1", "L2", "Linf")]
        lines.append(",".join(
            [str(r.level), str(r.M), _fmt(r.k)]
            + [_fmt(r.err[key]) for key in ("L1", "L2", "Linf")]
            + eocs))
    return lines


def markdown_lines(result):
    lines = [f"# Convergence tables: {result.problem}", ""]
    lines.append(f"Spatial grid {result.n_per_side} nodes per side, "
                 f"stopping threshold {result.threshold:g}.")
    for name, rows in result.tables.items():
        lines += ["", f"## {name}", ""]
        lines.append("| level | M | k | err L1 | err L2 | err Linf "
                     "| EOC L1 | EOC L2 | EOC Linf |")
        lines.append("|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
        for r in rows:
            eocs = [("/" if r.eoc[key] is None else f"{r.eoc[key]:.2f}")
                    for key in ("L1", "L2", "Linf")]
            lines.append(
                "| " + " | ".join(
                    [str(r.level), str(r.M), f"{r.k:.6g}"]
                    + [f"{r.err[key]:.8f}" for key in ("L1", "L2", "Linf")]
                    + eocs) + " |")
    return lines


def summary_lines(result):
    lines = []
    for name, rows in result.tables.items():
        for r in rows:
            rec = {"problem": result.problem, "table": name,
                   "level": r.level, "M": r.M, "k": r.k}
            for key in ("L1", "L2", "Linf"):
                rec[f"err_{key}"] = r.err[key]
                rec[f"eoc_{key}"] = r.eoc[key]
            i = r.level - 1      # per-level lists include failed levels
            rec["iterations"] = result.iterations[i]
            rec["wall_time_s"] = result.wall_times[i]
            lines.append(json.dumps(rec))
    for M, msg in result.failures.items():
        lines.append(json.dumps({"problem": result.problem, "table": None,
                                 "M": M, "failure": msg}))
    return lines


def read_config(path):
    """key=value lines; blank lines and # comments are skipped."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a usage error: main returns 1, not exit 2
        raise ValueError(message)


def _checked(convert, ok, message):
    """argparse type: convert the text and require ok(value)."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{message}, got {text!r}")
    return parse


def build_parser():
    ap = _Parser(
        prog="parapt", allow_abbrev=False,
        description="Convergence studies for a control-constrained "
                    "parabolic optimal control solver.")
    ap.add_argument("--example", choices=PROBLEMS, default="1",
                    help="1, 2 or manufactured (default 1)")
    ap.add_argument("--levels", type=_checked(
        lambda s: [int(tok) for tok in s.split(",")],
        lambda ls: ls and min(ls) >= 2 and all(
            a < b for a, b in zip(ls, ls[1:])), "invalid level list"),
                    help="comma list of time interval counts")
    ap.add_argument("--nh", default=65, type=_checked(
        int, lambda n: n >= 3, "nh must be at least 3"),
                    help="spatial nodes per side (default 65)")
    ap.add_argument("--threshold", default=1e-5, type=_checked(
        float, lambda x: math.isfinite(x) and x >= 0,
        "threshold must be non-negative and finite"),
                    help="fixed-point stopping threshold (default 1e-5)")
    ap.add_argument("--alpha", type=float,
                    help="override the regularization parameter (positive, "
                         "finite)")
    ap.add_argument("--out", type=Path, default="out",
                    help="output directory (default ./out)")
    ap.add_argument("--format", dest="fmt", choices=("csv", "md", "both"),
                    default="csv", help="csv, md or both (default csv)")
    ap.add_argument("--config", help="key=value file; flags win")
    ap.add_argument("--selftest", action="store_true",
                    help="run the exact-solution residual checks and exit")
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            cfg = read_config(args.config)
            args = parser.parse_args(
                [f"--{key}={val}" for key, val in cfg.items()] + argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.selftest:
        ok = True
        for spec in (problems.example1(), problems.example2(),
                     problems.manufactured_smooth()):
            try:
                res = problems.self_test(spec)
                worst = max(res.values())
                print(f"[PASS] {spec.name}: max residual {worst:.3e}")
            except AssertionError as exc:
                ok = False
                print(f"[FAIL] {spec.name}: {exc}")
        return 0 if ok else 2

    example, nh, out_dir = args.example, args.nh, args.out
    levels = args.levels or DEFAULT_LEVELS[example]
    try:
        spec = PROBLEMS[example]()
        if args.alpha is not None:
            spec = dataclasses.replace(spec, alpha=args.alpha)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 1

    if args.alpha is not None and spec.uad.dim:
        print("note: alpha override changes the problem; exact-solution "
              "errors refer to the original data", file=sys.stderr)

    print(f"problem {spec.name}: levels {levels}, {nh} nodes per side")
    result = run_study(spec, levels, n_per_side=nh, threshold=args.threshold,
                       verbose=True)

    if args.fmt in ("csv", "both"):
        for name, rows in result.tables.items():
            (out_dir / f"{name}.csv").write_text(
                "\n".join(csv_lines(rows)) + "\n")
    if args.fmt in ("md", "both"):
        (out_dir / "tables.md").write_text(
            "\n".join(markdown_lines(result)) + "\n")
    (out_dir / "summary.jsonl").write_text(
        "\n".join(summary_lines(result)) + "\n")

    for name, rows in result.tables.items():
        if not rows:
            continue
        last = rows[-1]
        eoc = last.eoc["L2"]
        eoc_txt = "/" if eoc is None else f"{eoc:.2f}"
        print(f"  {name:16s} final L2 error {last.err['L2']:.6e} "
              f"(EOC {eoc_txt})")
    if result.failures:
        for M, msg in result.failures.items():
            print(f"solver failure at M={M}: {msg}", file=sys.stderr)
        return 2
    print(f"wrote {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
