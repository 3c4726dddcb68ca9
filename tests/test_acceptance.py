"""End-to-end acceptance checks, one test per numbered criterion.

Each test appends a pass/fail line to the registry in helpers; the
terminal summary hook prints them after the run.  Criteria over the
benchmark studies share module-scoped study fixtures.
"""

import time

import numpy as np
import pytest

from helpers import (GAUSS12, dense_adjoint_oracle, dense_state_oracle,
                     l2l2_distance, record, total_variation)
from parapt.adjoint import adjoint_stability_check, solve_adjoint
from parapt.control import AdmissibleSet, clamp_control, control_norms
from parapt.errors import field_error_norms, run_study
from parapt.fem import build_mesh, interpolate, mass_matrix, stiffness_matrix
from parapt.optimizer import discretize_problem, fixed_point_solve
from parapt.problems import example1, example2, manufactured_smooth
from parapt.quadrature import gauss_points
from parapt.state import (RhsTerm, discretize_terms, solve_state,
                          state_l2_stability_check)
from parapt.timegrid import (PiecewiseConstantField, dual_linear_projection,
                             make_grid, uniform_grid)

EOC_BANDS = {"control": (1.8, 2.3), "state": (0.85, 1.15),
             "state_projected": (1.75, 2.3), "adjoint": (1.75, 2.3)}

EX1_LEVELS = [10, 20, 40, 80, 160]
# fine-time reference for criterion 5: 8 x 160, so nested in every level
EX1_M_REF = 1280

# control error magnitudes published for the first benchmark problem,
# keyed by interval count at the matching step size
REFERENCE_CONTROL_L2 = {4: 0.08052755, 8: 0.01977927, 16: 0.00448012}


def nonuniform_grid(T, M, seed):
    rng = np.random.default_rng(seed)
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, M))])
    return make_grid(t * (T / t[-1]))


@pytest.fixture(scope="module")
def ex1_study():
    """The example-1 study, plus the SolveReport of each level keyed by M.

    The reports are captured from inside run_study, so criterion 5 measures
    the very solutions whose analytic errors the tables hold.
    """
    reports = {}

    def keep(dp, grid, **kwargs):
        reports[grid.M] = fixed_point_solve(dp, grid, **kwargs)
        return reports[grid.M]

    tic = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("parapt.errors.fixed_point_solve", keep)
        res = run_study(example1(), EX1_LEVELS, n_per_side=65)
    return res, time.perf_counter() - tic, reports


def time_fields(report, grid):
    """The fields criterion 5 compares in L2(L2), by table name."""
    return {"state": report.state,
            "state_projected": dual_linear_projection(report.state, grid),
            "adjoint": report.adjoint}


@pytest.fixture(scope="module")
def ex1_reference():
    """Example 1 solved at M=EX1_M_REF on the same 65x65 discretization.

    Returns the reference control, its other fields, the mass matrix, each
    quantity's floor (L2 distance of the reference from the analytic
    solution, i.e. the fixed-mesh spatial error) and the wall time.
    """
    tic = time.perf_counter()
    prob = example1()
    mesh = build_mesh(65)
    M_h, K_h = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = uniform_grid(prob.T, EX1_M_REF)
    ref = fixed_point_solve(discretize_problem(prob, mesh, M_h, K_h), grid)
    fields = time_fields(ref, grid)
    ex = prob.exact
    y_pairs = [(s.theta, interpolate(mesh, s.profile)) for s in ex.y]
    p_pairs = [(s.theta, interpolate(mesh, s.profile)) for s in ex.p]
    floors = {"control": control_norms((ex.u_funcs, ex.u_breaks),
                                       ref.control, prob.T)["L2"]}
    for name, pairs in (("state", y_pairs), ("state_projected", y_pairs),
                        ("adjoint", p_pairs)):
        floors[name] = field_error_norms(pairs, fields[name], mesh, M_h)["L2"]
    return ref.control, fields, M_h, floors, time.perf_counter() - tic


@pytest.fixture(scope="module")
def ex2_study():
    tic = time.perf_counter()
    res = run_study(example2(), [8, 16, 32, 64, 128, 256], n_per_side=65)
    return res, time.perf_counter() - tic


def oracle_sweep(solver):
    worst = 0.0
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        mesh = build_mesh(n)
        M_h, K_h = mass_matrix(mesh), stiffness_matrix(mesh)
        Md, Kd = M_h.toarray(), K_h.toarray()
        size = len(mesh.interior)
        for M in (1, 2, 3, 4):
            grid = nonuniform_grid(0.8, M, seed=100 * n + M)
            c = rng.normal(size=3)
            g, y0 = rng.normal(size=size), rng.normal(size=size)

            def theta(t, c=c):
                t = np.asarray(t, dtype=float)
                return c[0] + c[1] * t + c[2] * t * t

            got, ref = solver(mesh, M_h, K_h, Md, Kd, grid, theta, g, y0)
            worst = max(worst, float(np.max(np.abs(got - ref))
                                     / np.max(np.abs(ref))))
    return worst


def test_criterion_1_state_equals_dense_space_time_solve():
    def solver(mesh, M_h, K_h, Md, Kd, grid, theta, g, y0):
        ref = dense_state_oracle(Md, Kd, grid, theta, g, y0)
        got = solve_state(M_h, K_h, grid, [RhsTerm(g, theta)], y0)
        return got.values, ref

    tic = time.perf_counter()
    worst = oracle_sweep(solver)
    wall = time.perf_counter() - tic
    ok = worst <= 1e-9 and wall < 10.0
    record(1, ok, f"state sweep vs one-shot space-time solve over 12 (n,M) "
                  f"pairs: max rel diff {worst:.2e} (tol 1e-9), "
                  f"{wall:.1f}s (budget 10s)")
    assert ok


def test_criterion_2_adjoint_equals_dense_space_time_solve():
    def solver(mesh, M_h, K_h, Md, Kd, grid, theta, g, y0):
        ref = dense_adjoint_oracle(Md, Kd, grid, theta=theta, g=g)
        got = solve_adjoint(M_h, K_h, grid, terms=[RhsTerm(g, theta)])
        return got.values, ref

    tic = time.perf_counter()
    worst = oracle_sweep(solver)
    wall = time.perf_counter() - tic
    ok = worst <= 1e-9 and wall < 10.0
    record(2, ok, f"adjoint sweep vs one-shot space-time solve over 12 (n,M) "
                  f"pairs: max rel diff {worst:.2e} (tol 1e-9), "
                  f"{wall:.1f}s (budget 10s)")
    assert ok


def observed_orders(errs, ks):
    return [float(np.log(errs[i - 1] / errs[i]) / np.log(ks[i - 1] / ks[i]))
            for i in range(1, len(errs))]


def test_criterion_3_state_supercloseness_on_fine_reference():
    """Interval means of the discrete state converge at second order to
    the nested means of a much finer discrete solution, while the raw
    piecewise-constant error converges at first order."""
    tic = time.perf_counter()
    prob = manufactured_smooth()
    mesh = build_mesh(65)
    M_h, K_h = mass_matrix(mesh), stiffness_matrix(mesh)
    y0 = interpolate(mesh, prob.y0)
    terms = discretize_terms(mesh, prob.g0)
    y_pairs = [(s.theta, interpolate(mesh, s.profile)) for s in prob.exact.y]

    M_ref = 2048
    y_ref = solve_state(M_h, K_h, uniform_grid(prob.T, M_ref), terms, y0)

    levels = (8, 16, 32, 64, 128)
    close_errs, raw_errs, ks = [], [], []
    for M in levels:
        grid = uniform_grid(prob.T, M)
        y_k = solve_state(M_h, K_h, grid, terms, y0)
        r = M_ref // M
        nested = y_ref.values[:-1].reshape(M, r, -1).mean(axis=1)
        diff = y_k.values[:-1] - nested
        sq = sum(grid.k[m] * float(diff[m] @ (M_h @ diff[m]))
                 for m in range(M))
        close_errs.append(np.sqrt(sq))
        raw_errs.append(field_error_norms(y_pairs, y_k, mesh, M_h)["L2"])
        ks.append(grid.k_max)
    close_eoc = observed_orders(close_errs, ks)
    raw_eoc = observed_orders(raw_errs, ks)
    wall = time.perf_counter() - tic
    ok = (all(1.8 <= x <= 2.2 for x in close_eoc[-2:])
          and all(0.85 <= x <= 1.15 for x in raw_eoc[-2:])
          and wall < 120.0)
    record(3, ok, f"interval-mean orders {np.round(close_eoc, 3).tolist()} "
                  f"(last two in [1.8,2.2]), raw orders "
                  f"{np.round(raw_eoc, 3).tolist()} (last two in "
                  f"[0.85,1.15]), {wall:.0f}s (budget 120s)")
    assert ok


def test_criterion_4_adjoint_sees_only_interval_means():
    tic = time.perf_counter()
    mesh = build_mesh(17)
    M_h, K_h = mass_matrix(mesh), stiffness_matrix(mesh)
    g = np.random.default_rng(7).normal(size=len(mesh.interior))

    def theta(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-t) * np.cos(3.0 * t)

    worst = 0.0
    for M in (4, 16, 64):
        grid = uniform_grid(1.0, M)
        xg, wg = GAUSS12
        pts = (0.5 * (grid.t[:-1] + grid.t[1:])[:, None]
               + 0.5 * grid.k[:, None] * xg[None, :])
        means = 0.5 * (theta(pts) @ wg)

        def step(t, grid=grid, means=means):
            idx = np.minimum(grid.interval_index(t), len(means) - 1)
            return means[idx]

        p_smooth = solve_adjoint(M_h, K_h, grid, terms=[RhsTerm(g, theta)])
        p_step = solve_adjoint(M_h, K_h, grid, terms=[
            RhsTerm(g, step, breaks=grid.t[1:-1])])
        scale = float(np.max(np.abs(p_smooth.values)))
        worst = max(worst, float(np.max(np.abs(
            p_smooth.values - p_step.values))) / scale)
    wall = time.perf_counter() - tic
    ok = worst <= 1e-9
    record(4, ok, f"smooth rhs vs its interval-mean step rhs, M in 4/16/64: "
                  f"max rel diff {worst:.2e} (tol 1e-9), {wall:.1f}s")
    assert ok


def qualifying_orders(rows, lo):
    """Observed L2 orders a band check may assert on a fixed spatial mesh.

    The first ratio is startup and never asserted (the bands target mid
    levels).  Once the order falls below the band the temporal error has
    reached the fixed-mesh error floor and deteriorates from there on, so
    that ratio and every finer one are excluded as floor-dominated.
    """
    orders = [rows[i].eoc["L2"] for i in range(1, len(rows))]
    keep = []
    for i, x in enumerate(orders, start=1):
        if i >= 2 and x < lo:
            break
        if i >= 2:
            keep.append(x)
    return keep


def band_report(result, control_min):
    checks, parts = {}, []
    for name, (lo, hi) in EOC_BANDS.items():
        rows = result.tables[name]
        q = qualifying_orders(rows, lo)
        need = control_min if name == "control" else 1
        ok = len(q) >= need and all(lo <= x <= hi for x in q)
        checks[name] = ok
        note = "" if len(q) >= need else f" (need {need} pre-floor)"
        parts.append(f"{name} orders {np.round([r.eoc['L2'] for r in rows[1:]], 2).tolist()}"
                     f" qualifying {np.round(q, 2).tolist()}"
                     f" in [{lo},{hi}]{note}: {'ok' if ok else 'FAIL'}")
    return checks, "; ".join(parts)


def test_criterion_5_first_benchmark_convergence(ex1_study, ex1_reference):
    """Time orders of example 1, measured against a same-mesh reference.

    Against the analytic solution the O(h^2) error of the fixed 65x65 mesh
    (amplified by 1/alpha in the control) swamps the O(k^2) time error from
    M=20 on.  The distance to the M=1280 solve on the same mesh holds the
    time error alone, so every ratio after the startup one must lie in its
    band.  Each quantity's floor, the reference's own analytic error, must
    lie below the analytic error at M=10: a reference that is consistent
    but solves the wrong problem fails there.
    """
    tic = time.perf_counter()
    result, study_wall, reports = ex1_study
    u_ref, ref_fields, M_h, floors, ref_wall = ex1_reference
    T = example1().T
    dists = {name: [] for name in EOC_BANDS}
    ks = []
    for M in EX1_LEVELS:
        grid = uniform_grid(T, M)
        dists["control"].append(
            control_norms(reports[M].control, u_ref, T)["L2"])
        for name, f in time_fields(reports[M], grid).items():
            dists[name].append(l2l2_distance(f, ref_fields[name], M_h))
        ks.append(grid.k_max)

    control_min = 3
    checks, parts = {}, []
    for name, (lo, hi) in EOC_BANDS.items():
        rows = result.tables[name]
        orders = observed_orders(dists[name], ks)
        need = control_min if name == "control" else 1
        first = rows[0].err["L2"]
        ok = (len(orders) - 1 >= need
              and all(lo <= x <= hi for x in orders[1:])
              and floors[name] < first)
        checks[name] = ok
        parts.append(
            f"{name} exact-solution orders "
            f"{np.round([r.eoc['L2'] for r in rows[1:]], 2).tolist()}, "
            f"time orders {np.round(orders, 2).tolist()} (after the first "
            f"in [{lo},{hi}]), floor {floors[name]:.2e} (M={rows[0].M} "
            f"error {first:.2e}): {'ok' if ok else 'FAIL'}")
    wall = study_wall + ref_wall + time.perf_counter() - tic
    ok = result.ok and all(checks.values()) and wall < 900.0
    detail = (f"levels 10..160 on the 65x65 grid vs M={EX1_M_REF} on the "
              f"same grid: {'; '.join(parts)}; {wall:.0f}s (budget 900s)")
    record(5, ok, detail)
    assert ok, detail


def test_criterion_6_second_benchmark_convergence(ex2_study):
    result, wall = ex2_study
    checks, parts = band_report(result, control_min=1)
    ok = result.ok and all(checks.values())
    record(6, ok, f"levels 8..256 on the 65x65 grid: {parts}; {wall:.0f}s")
    assert ok, parts


def test_criterion_7_iteration_counts(ex1_study):
    result, _, _ = ex1_study
    its = result.iterations
    ok = (result.ok and all(3 <= i <= 6 for i in its)
          and max(its) - min(its) <= 1)
    record(7, ok, f"fixed-point sweeps per level {its}: all in [3,6], "
                  f"spread {max(its) - min(its)} <= 1")
    assert ok


def test_criterion_8_control_error_magnitudes(ex1_study):
    """Informational cross-check of absolute control error magnitudes
    against the published reference values; never gates the suite."""
    result, _, _ = ex1_study
    mini = run_study(example1(), [8, 16], n_per_side=65)
    mine_k = {r.M: r.err["L2"] for r in mini.tables["control"]}
    sched = {r.M: r.err["L2"] for r in result.tables["control"]}

    def factor(a, b):
        return max(a / b, b / a)

    matched = {M: factor(mine_k[M], REFERENCE_CONTROL_L2[M])
               for M in (8, 16)}
    aligned = {40: factor(sched[40], REFERENCE_CONTROL_L2[8]),
               80: factor(sched[80], REFERENCE_CONTROL_L2[16])}
    within = all(f <= 2.0 for f in matched.values())
    record(8, within,
           f"discrepancy factors vs published control errors: matched step "
           f"sizes M=8 {matched[8]:.2f}, M=16 {matched[16]:.2f} "
           f"({'within' if within else 'outside'} factor 2); level-aligned "
           f"own schedule M=40 {aligned[40]:.2f}, M=80 {aligned[80]:.2f}",
           informational=True)


def test_criterion_9_property_sweep(rng):
    tic = time.perf_counter()
    bad = []

    box = AdmissibleSet(np.array([-2.0]), np.array([1.5]))
    times = np.linspace(0.0, 1.0, 8)
    samples = np.linspace(0.0, 1.0, 401)
    for _ in range(20):
        raw = rng.uniform(-6.0, 6.0, (1, times.size))
        u = clamp_control(times, raw, box)
        again = clamp_control(np.asarray(u.breaks[0]),
                              np.asarray(u.vals[0])[None, :], box)
        direct = np.clip(np.interp(samples, times, raw[0]), -2.0, 1.5)
        tv = np.sum(np.abs(np.diff(np.clip(raw[0], -2.0, 1.5))))
        if not (np.allclose(u.value(0, samples), direct, atol=1e-12)
                and np.allclose(again.value(0, samples),
                                u.value(0, samples), atol=1e-13)
                and u.vals[0].min() >= box.lower[0] - 1e-14
                and u.vals[0].max() <= box.upper[0] + 1e-14
                and abs(total_variation(u.vals[0]) - tv) <= 1e-12):
            bad.append("clamp")

    grid = uniform_grid(1.0, 9)
    mids = 0.5 * (grid.t[:-1] + grid.t[1:])
    lin = np.zeros((grid.M + 1, 1))
    lin[:-1, 0] = 0.3 - 1.7 * mids
    proj = dual_linear_projection(PiecewiseConstantField(grid, lin), grid)
    if not np.allclose(proj.values[:, 0], 0.3 - 1.7 * proj.times, atol=1e-12):
        bad.append("lift-reproduction")
    for _ in range(5):
        w = np.zeros((grid.M + 1, 1))
        w[:-1, 0] = rng.uniform(-3.0, 3.0, grid.M)
        proj = dual_linear_projection(PiecewiseConstantField(grid, w), grid)
        if np.max(np.abs(proj.values)) > 2.0 * np.max(np.abs(w[:-1])) + 1e-12:
            bad.append("lift-stability")

    mesh = build_mesh(9)
    M_h, K_h = mass_matrix(mesh), stiffness_matrix(mesh)
    size = len(mesh.interior)
    g = np.ones(size)
    y0 = np.linspace(0.3, 1.0, size)
    term = RhsTerm(g, lambda t: np.cos(3.0 * t))
    s_ratios, a_ratios = [], []
    for M in (4, 16, 64, 128):
        grid = uniform_grid(1.0, M)
        y = solve_state(M_h, K_h, grid, [term], y0)
        s_ratios.append(state_l2_stability_check(y, [term], y0, M_h, grid))
        p = solve_adjoint(M_h, K_h, grid, terms=[term])
        pts, wts = gauss_points(grid.t[:-1], grid.t[1:])
        rhs_norm = np.sqrt(float((wts * term.temporal(pts) ** 2).sum())
                           * float(g @ (M_h @ g)))
        a_ratios.append(adjoint_stability_check(p, rhs_norm, M_h, K_h, grid))
    if not (max(s_ratios) <= 1.0
            and max(s_ratios) / min(s_ratios) <= 1.05):
        bad.append("state-stability")
    if not (max(a_ratios) <= 5.0
            and max(a_ratios) / min(a_ratios) <= 1.1):
        bad.append("adjoint-stability")

    f = RhsTerm(rng.normal(size=size), lambda t: 0.3 + t ** 2 - t ** 3)
    h = RhsTerm(rng.normal(size=size), lambda t: 1.0 - 0.5 * t + t ** 2)
    for M in (3, 7):
        grid = uniform_grid(0.8, M)
        y = solve_state(M_h, K_h, grid, [f], np.zeros(size))
        p = solve_adjoint(M_h, K_h, grid, terms=[h])
        Mgf, Mgh = M_h @ f.spatial, M_h @ h.spatial
        pts, wts = gauss_points(grid.t[:-1], grid.t[1:])
        lhs = rhs = 0.0
        for m in range(grid.M):
            pvals = p.value(pts[m])
            lhs += float(wts[m] @ (f.temporal(pts[m]) * (pvals @ Mgf)))
            rhs += float(wts[m] @ h.temporal(pts[m])) \
                * float(y.values[m] @ Mgh)
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs)):
            bad.append("duality")

    wall = time.perf_counter() - tic
    ok = not bad and wall < 60.0
    record(9, ok, f"clamp x20, midpoint lift, step-size stability, discrete "
                  f"duality: {'all hold' if not bad else 'failed ' + ','.join(bad)}, "
                  f"{wall:.1f}s (budget 60s)")
    assert ok, bad
