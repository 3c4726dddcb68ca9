"""The benchmark's three workloads.

Each workload has a set-up (import parapt, build the problem, the mesh, the
mass and stiffness matrices and the discrete problem data), a warm-up (its
coarsest level alone, discarded), a study (the timed, repeated operation)
and a check over the outputs of all studies of one run.  All three are
closed loops: one study after another in one process.

- ``ex2-study``: the CLI on example 2, nh=65, levels 8,16,32.  One step
  size per level, so every step matrix serves 3 sweeps x 2 directions;
  optimizer sweeps, clamp arcs and the CLI output path.
- ``ex1-nh129``: the CLI on example 1, nh=129, levels 4,8.  Four times the
  unknowns of nh=65 for the linear solves and error norms; 3 and 4
  rounding-distinct step sizes per level.
- ``manufactured-graded``: the library sweeps and error norms on the
  manufactured problem, nh=65, graded grids (exponent 2) with M=8..128.
  No optimizer; every interval has its own step size, so each step matrix
  is used once forward and once backward.
"""

import contextlib
import importlib
import io
import json
import sys

import numpy as np

import checks

TABLES = ("control", "state", "state_projected", "adjoint")


def import_parapt():
    """Import parapt afresh, so every set-up pays the package import."""
    for name in [n for n in sys.modules
                 if n == "parapt" or n.startswith("parapt.")]:
        del sys.modules[name]
    parapt = importlib.import_module("parapt")
    importlib.import_module("parapt.cli")
    return parapt


class CliStudy:
    """A convergence study run through ``parapt.cli.main`` in-process."""

    def __init__(self, example, nh, levels, fmt):
        self.example, self.nh, self.levels, self.fmt = example, nh, levels, fmt
        self.problem = {"1": "example1", "2": "example2"}[example]

    def setup(self, instrument=None):
        parapt = import_parapt()
        if instrument:
            instrument()
        prob = getattr(parapt.problems, self.problem)()
        mesh = parapt.fem.build_mesh(self.nh)
        M_h = parapt.fem.mass_matrix(mesh)
        K_h = parapt.fem.stiffness_matrix(mesh)
        parapt.optimizer.discretize_problem(prob, mesh, M_h, K_h)
        return parapt

    def _argv(self, levels, out):
        return ["--example", self.example, "--nh", str(self.nh),
                "--levels", ",".join(map(str, levels)),
                "--format", self.fmt, "--out", str(out)]

    def _main(self, parapt, argv):
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            return parapt.cli.main(argv), log.getvalue()

    def warmup(self, parapt, out):
        self._main(parapt, self._argv(self.levels[:1], out))

    def study(self, parapt, out):
        return self._main(parapt, self._argv(self.levels, out))

    def collect(self, raw, out):
        """Exit code, CSV bytes and failed levels of one finished study."""
        code, log = raw
        csvs = {name: (out / f"{name}.csv").read_bytes()
                for name in TABLES if (out / f"{name}.csv").exists()}
        if code == 0:
            failed = 0
        elif code == 2 and (out / "summary.jsonl").exists():
            recs = [json.loads(line) for line in
                    (out / "summary.jsonl").read_text().splitlines() if line]
            failed = sum(1 for r in recs if "failure" in r)
        else:
            failed = len(self.levels)
        return {"code": code, "log": log, "csvs": csvs, "failed": failed}

    def check(self, outcomes, parapt):
        failures = [f"study {i}: exit code {o['code']}: {o['log'][-300:]}"
                    for i, o in enumerate(outcomes) if o["code"] != 0]
        failures += checks.identical_failures([o["csvs"] for o in outcomes])
        tables = {name: checks.parse_csv(data)
                  for name, data in outcomes[0]["csvs"].items()}
        return failures + self.table_failures(tables)


class Example2Study(CliStudy):
    def __init__(self):
        super().__init__("2", 65, [8, 16, 32], "both")

    def table_failures(self, tables):
        return checks.band_failures(tables, control_min=1)


class Example1Nh129(CliStudy):
    def __init__(self):
        super().__init__("1", 129, [4, 8], "csv")

    def table_failures(self, tables):
        if set(tables) != set(TABLES):
            return [f"tables {sorted(tables)}, expected {sorted(TABLES)}"]
        solved = [int(r["M"]) for r in tables["control"]]
        if solved != self.levels:
            return [f"control table has levels {solved}, expected "
                    f"{self.levels}"]
        failures = checks.paper_failures(tables["control"])
        for name in ("state", "control", "adjoint"):
            orders = [r["eoc_L2"] for r in tables[name][1:]]
            failures += checks.order_failures(name, orders,
                                              checks.EOC_BANDS[name])
        return failures


class ManufacturedGraded:
    """Library sweeps and error norms on graded grids, no optimizer."""

    nh = 65
    levels = [8, 16, 32, 64, 128]
    gamma = 2

    def setup(self, instrument=None):
        parapt = import_parapt()
        if instrument:
            instrument()
        fem, RhsTerm = parapt.fem, parapt.state.RhsTerm
        prob = parapt.problems.manufactured_smooth()
        mesh = fem.build_mesh(self.nh)
        M_h, K_h = fem.mass_matrix(mesh), fem.stiffness_matrix(mesh)

        def load(terms):
            return [RhsTerm(fem.interpolate(mesh, s.profile), s.theta,
                            breaks=np.asarray(s.breaks, dtype=float))
                    for s in terms]

        def exact(terms):
            return [(s.theta, fem.interpolate(mesh, s.profile))
                    for s in terms]

        self.ctx = dict(
            T=prob.T, mesh=mesh, M_h=M_h, K_h=K_h,
            y0=fem.interpolate(mesh, prob.y0),
            f_terms=load(prob.g0), h_terms=load(prob.exact.p_rhs),
            y_pairs=exact(prob.exact.y), p_pairs=exact(prob.exact.p))
        return parapt

    def _run(self, parapt, levels):
        c = self.ctx
        norms = parapt.errors.field_error_norms
        errors, fields, failures = [], None, []
        for M in levels:
            try:
                grid = parapt.timegrid.graded_grid(c["T"], M, self.gamma)
                y = parapt.state.solve_state(c["M_h"], c["K_h"], grid,
                                             c["f_terms"], c["y0"])
                p = parapt.adjoint.solve_adjoint(c["M_h"], c["K_h"], grid,
                                                 terms=c["h_terms"])
                lifted = parapt.timegrid.dual_linear_projection(y, grid)
                errors.append({
                    "M": M, "k_max": grid.k_max,
                    "state": norms(c["y_pairs"], y, c["mesh"], c["M_h"]),
                    "state_projected": norms(c["y_pairs"], lifted, c["mesh"],
                                             c["M_h"]),
                    "adjoint": norms(c["p_pairs"], p, c["mesh"], c["M_h"])})
            except Exception as exc:     # a failed level is counted, not fatal
                failures.append(f"M={M}: {type(exc).__name__}: {exc}")
                continue
            if fields is None:
                fields = (grid.t.copy(), y.values.copy(), p.values.copy())
        return errors, fields, failures

    def warmup(self, parapt, out):
        self._run(parapt, self.levels[:1])

    def study(self, parapt, out):
        return self._run(parapt, self.levels)

    def collect(self, raw, out):
        errors, fields, failures = raw
        return {"errors": errors, "fields": fields, "failures": failures,
                "failed": len(failures)}

    def check(self, outcomes, parapt):
        failures = [f for o in outcomes for f in o["failures"]]
        failures += checks.identical_failures(
            [{"errors": repr(o["errors"])} for o in outcomes])
        errors = outcomes[0]["errors"]
        state_l2 = [e["state"]["L2"] for e in errors]
        orders = checks.observed_orders(state_l2, [e["k_max"] for e in errors])
        failures += checks.order_failures("state (against k_max)", orders,
                                          checks.EOC_BANDS["state"])
        if len(errors) != len(self.levels):
            failures.append(f"{len(errors)} of {len(self.levels)} levels "
                            "solved")
        if outcomes[0]["fields"] is None:
            return failures + ["no level solved"]
        t, y, p = outcomes[0]["fields"]
        c = self.ctx
        Md, Kd = checks.p1_matrices(c["mesh"].nodes, c["mesh"].triangles,
                                    c["mesh"].interior_index)
        failures += checks.field_failures(
            "state", y, checks.space_time_state(
                Md, Kd, t, [(f.temporal, f.spatial) for f in c["f_terms"]],
                c["y0"]))
        failures += checks.field_failures(
            "adjoint", p, checks.space_time_adjoint(
                Md, Kd, t, [(h.temporal, h.spatial) for h in c["h_terms"]]))
        return failures


WORKLOADS = {
    "ex2-study": Example2Study,
    "ex1-nh129": Example1Nh129,
    "manufactured-graded": ManufacturedGraded,
}
