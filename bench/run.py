"""Benchmark of parapt's convergence studies.

    python3 bench/run.py --workload ex2-study --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; parapt is imported from its ``src``.  One
run is one fresh single-threaded process (BLAS pinned to one thread before
numpy loads) doing, for the chosen workload:

1. ``SETUPS`` set-ups, each re-importing parapt; ``setup_s`` is their median;
2. a warm-up study of the coarsest level alone, discarded;
3. whole studies until ``--seconds`` have passed, at least ``MIN_STUDIES``;
   ``study_s`` is the median study wall time;
4. ``peak_rss_mib`` read before the output checks, which then run on every
   study of the run.

With ``--trace 1`` the parapt modules are wrapped by ``spans.Tracer`` and
the per-layer metrics (medians over the set-ups and over the studies, each
study traced) replace the end-to-end ones; ``trace.study_s`` is the traced
study time, so its distance from ``study_s`` is the tracing overhead.

The workloads are fixed problems with closed-form solutions; ``--seed`` is
recorded but changes no input.  The last line of standard output is one
JSON object with ``correct``, ``attempted`` and ``failed`` (study levels)
and ``metrics``.  Raw timings, and with tracing every span, go to
``bench/out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUPS = 9
MIN_STUDIES = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def versions():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "parapt" / "__init__.py").is_file():
        print(f"error: no parapt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    tracer = spans.Tracer() if args.trace else None
    instrument = tracer.install if tracer else None
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)

    setup_times, setup_phases = [], []
    for _ in range(SETUPS):
        lo = tracer.mark() if tracer else 0
        tic = time.perf_counter()
        parapt = wl.setup(instrument)
        setup_times.append(time.perf_counter() - tic)
        setup_phases.append((lo, tracer.mark() if tracer else 0))
    if not Path(parapt.__file__).resolve().is_relative_to(SRC):
        print(f"error: parapt imported from {parapt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl.warmup(parapt, out / "warmup")

    outcomes, study_times, study_phases = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(outcomes) < MIN_STUDIES or time.perf_counter() < deadline:
        rep_out = out / f"study-{len(outcomes)}"
        lo = tracer.mark() if tracer else 0
        tic = time.perf_counter()
        raw = wl.study(parapt, rep_out)
        study_times.append(time.perf_counter() - tic)
        study_phases.append((lo, tracer.mark() if tracer else 0))
        outcomes.append(wl.collect(raw, rep_out))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = wl.check(outcomes, parapt)
    attempted = len(outcomes) * len(wl.levels)
    failed = sum(o["failed"] for o in outcomes)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_times_s": setup_times, "study_times_s": study_times,
              "peak_rss_mib": peak_rss_mib, "failures": failures,
              "versions": versions()}
    if tracer:
        setup_vals, absent = spans.layer_metrics(tracer, setup_phases,
                                                 spans.SETUP_METRICS)
        study_vals, absent2 = spans.layer_metrics(tracer, study_phases,
                                                  spans.STUDY_METRICS)
        absent += absent2
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in {**setup_vals, **study_vals}.items()}
        metrics["trace.study_s"] = {"value": statistics.median(study_times),
                                    "unit": "s"}
        record["absent"] = absent
        if absent:
            print(f"absent from the program: {', '.join(absent)}",
                  file=sys.stderr)
        spans.dump(tracer, OUT / f"trace-{args.workload}-{args.seed}.json",
                   dict(record, metrics=metrics,
                        setup_phases=setup_phases, study_phases=study_phases))
    else:
        metrics = {
            "study_s": {"value": statistics.median(study_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    record["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
