"""Command-line driver producing convergence tables.

Runs one benchmark problem over a sequence of time grids and writes one
CSV per error table, an aligned markdown rendering, and a line-delimited
summary with iteration counts and wall times.  CSV content depends only
on the chosen flags, so repeat runs are byte-identical.

Exit codes: 0 on success, 1 on usage errors (unknown problem, a level
list that is malformed, has a level below 2 intervals or does not
increase strictly, fewer than 3 nodes per side, a negative or non-finite
threshold, non-positive or non-finite alpha, unwritable output
directory), 2 on solver failures.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import problems
from .errors import TABLES, run_state_study, run_study

CSV_HEADER = "level,M,k,err_L1,err_L2,err_Linf,eoc_L1,eoc_L2,eoc_Linf"
DEFAULT_LEVELS = {
    "1": "10,20,40,80,160",
    "2": "8,16,32,64,128,256",
    "manufactured": "8,16,32,64,128",
}
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
    for name in TABLES:
        if name not in result.tables:
            continue
        rows = result.tables[name]
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
    for name in TABLES:
        if name not in result.tables:
            continue
        for i, r in enumerate(result.tables[name]):
            rec = {"problem": result.problem, "table": name,
                   "level": r.level, "M": r.M, "k": r.k}
            for key in ("L1", "L2", "Linf"):
                rec[f"err_{key}"] = r.err[key]
                rec[f"eoc_{key}"] = r.eoc[key]
            rec["iterations"] = result.iterations[i] \
                if i < len(result.iterations) else None
            rec["wall_time_s"] = result.wall_times[i] \
                if i < len(result.wall_times) else None
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


def build_parser():
    ap = argparse.ArgumentParser(
        prog="parapt",
        description="Convergence studies for a control-constrained "
                    "parabolic optimal control solver.")
    ap.add_argument("--example", help="1, 2 or manufactured")
    ap.add_argument("--levels", help="comma list of time interval counts")
    ap.add_argument("--nh", type=int, help="spatial nodes per side "
                                           "(default 65)")
    ap.add_argument("--threshold", type=float,
                    help="fixed-point stopping threshold (default 1e-5)")
    ap.add_argument("--alpha", type=float,
                    help="override the regularization parameter (positive, "
                         "finite)")
    ap.add_argument("--out", help="output directory (default ./out)")
    ap.add_argument("--format", dest="fmt", help="csv, md or both")
    ap.add_argument("--config", help="key=value file; flags win")
    ap.add_argument("--selftest", action="store_true",
                    help="run the exact-solution residual checks and exit")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)

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

    cfg = {}
    if args.config:
        try:
            cfg = read_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    def pick(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        return cfg.get(key, fallback)

    example = str(pick(args.example, "example", "1"))
    if example not in ("1", "2", "manufactured"):
        print(f"error: unknown problem {example!r} "
              "(choose 1, 2 or manufactured)", file=sys.stderr)
        return 1
    levels_raw = str(pick(args.levels, "levels", DEFAULT_LEVELS[example]))
    try:
        levels = [int(tok) for tok in levels_raw.split(",") if tok.strip()]
        if not levels or any(M < 2 for M in levels) or any(
                a >= b for a, b in zip(levels, levels[1:])):
            raise ValueError
    except ValueError:
        print(f"error: invalid level list {levels_raw!r}", file=sys.stderr)
        return 1
    try:
        nh = int(pick(args.nh, "nh", 65))
        if nh < 3:
            raise ValueError(f"nh must be at least 3, got {nh}")
        threshold = float(pick(args.threshold, "threshold", 1e-5))
        if not (math.isfinite(threshold) and threshold >= 0):
            raise ValueError(f"threshold must be non-negative and finite, "
                             f"got {threshold}")
        alpha = pick(args.alpha, "alpha", None)
        spec = PROBLEMS[example]()
        if alpha is not None:
            spec = dataclasses.replace(spec, alpha=float(alpha))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(str(pick(args.out, "out", "out")))
    fmt = str(pick(args.fmt, "format", "csv"))
    if fmt not in ("csv", "md", "both"):
        print(f"error: unknown format {fmt!r}", file=sys.stderr)
        return 1

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 1

    if alpha is not None:
        if spec.name != "manufactured":
            print("note: alpha override changes the problem; exact-solution "
                  "errors refer to the original data", file=sys.stderr)

    print(f"problem {spec.name}: levels {levels}, {nh} nodes per side")
    if example == "manufactured":
        result = run_state_study(spec, levels, n_per_side=nh, verbose=True)
    else:
        result = run_study(spec, levels, n_per_side=nh, threshold=threshold,
                           verbose=True)

    if fmt in ("csv", "both"):
        for name in TABLES:
            if name in result.tables:
                path = out_dir / f"{name}.csv"
                path.write_text("\n".join(csv_lines(result.tables[name]))
                                + "\n")
    if fmt in ("md", "both"):
        (out_dir / "tables.md").write_text(
            "\n".join(markdown_lines(result)) + "\n")
    (out_dir / "summary.jsonl").write_text(
        "\n".join(summary_lines(result)) + "\n")

    for name in TABLES:
        if name not in result.tables or not result.tables[name]:
            continue
        last = result.tables[name][-1]
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
