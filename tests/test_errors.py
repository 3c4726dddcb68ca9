import tracemalloc

import numpy as np
import pytest

import parapt.errors
from helpers import l1_norm, l2l2_distance, linf_norm
from parapt.control import control_norms
from parapt.errors import eoc_table, field_error_norms, run_study
from parapt.fem import build_mesh, interpolate, mass_matrix, stiffness_matrix
from parapt.optimizer import discretize_problem, fixed_point_solve
from parapt.problems import example1, manufactured_smooth
from parapt.quadrature import gauss_points
from parapt.state import solve_state
from parapt.timegrid import (PiecewiseConstantField, PiecewiseLinearField,
                             dual_linear_projection, graded_grid,
                             make_grid, uniform_grid)


def test_eoc_table_orders():
    entries = [(1, 8, 0.1, {"L2": 0.08052755}),
               (2, 16, 0.05, {"L2": 0.01977927})]
    rows = eoc_table(entries)
    assert rows[0].eoc["L2"] is None
    # log(0.08052755 / 0.01977927) / log(2), worked out by hand
    assert rows[1].eoc["L2"] == pytest.approx(2.0254932599132904, abs=1e-12)


def test_eoc_table_skips_degenerate_rows():
    entries = [(1, 4, 0.2, {"L2": 0.1, "L1": 0.0}),
               (2, 8, 0.1, {"L2": 0.0, "L1": 0.05}),
               (3, 16, 0.1, {"L2": 0.01, "L1": 0.02})]
    rows = eoc_table(entries)
    assert rows[1].eoc["L2"] is None          # current error vanished
    assert rows[1].eoc["L1"] is None          # previous error vanished
    assert rows[2].eoc["L1"] is None          # step size did not change
    assert eoc_table([]) == []


def test_field_error_norms_reproduction():
    """A piecewise-linear field built from a linear-in-time separable term
    is reproduced exactly, so every norm is roundoff."""
    mesh = build_mesh(6)
    M_h = mass_matrix(mesh)
    rng = np.random.default_rng(3)
    g = rng.normal(size=len(mesh.interior))

    def theta(t):
        return 1.0 + 2.0 * np.asarray(t)

    times = np.linspace(0.0, 0.7, 6)
    approx = PiecewiseLinearField(make_grid(times),
                                  theta(times)[:, None] * g[None, :])
    norms = field_error_norms([(theta, g)], approx, mesh, M_h)
    assert max(norms.values()) <= 1e-12


def test_field_error_norms_constant_field():
    """With no exact terms the norms are those of the field itself; on the
    3x3 mesh the single interior basis function has mass 1/8 and lumped
    weight 1/4, giving closed forms for a constant-in-time field."""
    mesh = build_mesh(3)
    M_h = mass_matrix(mesh)
    T, c = 0.7, 3.0
    grid = uniform_grid(T, 4)
    vals = np.full((grid.M + 1, 1), c)
    norms = field_error_norms([], PiecewiseConstantField(grid, vals), mesh, M_h)
    assert norms["L1"] == pytest.approx(c * 0.25 * T, rel=1e-12)
    assert norms["L2"] == pytest.approx(c * np.sqrt(0.125 * T), rel=1e-12)
    assert norms["Linf"] == pytest.approx(c, rel=1e-14)


def looped_field_error_norms(exact_terms, approx, mesh, M_h):
    """The same norms, one interval and one Gauss point at a time."""
    edges = approx.grid.t
    l1 = l2sq = linf = 0.0
    for m in range(len(edges) - 1):
        t0, t1 = edges[m], edges[m + 1]
        pts, wts = gauss_points(t0, t1)
        sample = np.concatenate([[t0], pts, [t1]])
        exact = np.zeros((len(sample), M_h.shape[0]))
        for theta, g in exact_terms:
            exact += np.asarray(theta(sample))[:, None] * g[None, :]
        if isinstance(approx, PiecewiseConstantField):
            approx_vals = np.broadcast_to(approx.values[m], exact.shape)
        else:
            approx_vals = approx.value(sample)
        err = exact - approx_vals
        for q in range(len(pts)):
            e = err[1 + q]
            l2sq += wts[q] * float(e @ (M_h @ e))
            l1 += wts[q] * l1_norm(mesh, e)
        linf = max(linf, max(linf_norm(e) for e in err))
    return {"L1": l1, "L2": float(np.sqrt(l2sq)), "Linf": linf}


@pytest.mark.parametrize("chunk_entries", [None, 7 * 49 * 3, 7 * 49 * 7, 1])
def test_field_error_norms_match_looped_form(monkeypatch, chunk_entries):
    """Batched norms equal the per-interval loop to 1e-12 relative, with
    no, two or three exact terms, and with the whole grid in one chunk,
    three or seven intervals per chunk, or one.  The piecewise-constant
    field has 14 intervals and its dual projection 15, so with three per
    chunk the projection's last chunk ends exactly on its last interval
    and the field's is short, and with seven the other way round."""
    if chunk_entries is not None:
        monkeypatch.setattr(parapt.errors, "CHUNK_ENTRIES", chunk_entries)
    mesh = build_mesh(9)
    M_h = mass_matrix(mesh)
    rng = np.random.default_rng(8)
    grid = graded_grid(0.7, 14, 2)
    g1, g2, g3 = rng.normal(size=(3, M_h.shape[0]))
    terms = [(lambda t: np.exp(-np.asarray(t)), g1),
             (lambda t: np.sin(5.0 * np.asarray(t)), g2),
             (lambda t: 1.0 + np.asarray(t) ** 2, g3)]
    pc = PiecewiseConstantField(grid, rng.normal(size=(grid.M + 1,
                                                        M_h.shape[0])))
    pc.values[-1] = np.nan        # the terminal value lies on no interval
    for n_terms in (0, 2, 3):
        exact = terms[:n_terms]
        for approx in (pc, dual_linear_projection(pc, grid)):
            got = field_error_norms(exact, approx, mesh, M_h)
            want = looped_field_error_norms(exact, approx, mesh, M_h)
            for key in want:
                assert got[key] == pytest.approx(want[key], rel=1e-12), \
                    (n_terms, key)


def test_field_error_norms_many_intervals_on_one_dof():
    """With one interior dof the size of the coefficient matrix, not the
    sampled values, bounds a chunk: 1000 intervals take several chunks,
    the peak traced memory stays within a few CHUNK_ENTRIES doubles, and
    the norms still match the per-interval loop."""
    mesh = build_mesh(3)
    M_h = mass_matrix(mesh)
    rng = np.random.default_rng(4)
    grid = uniform_grid(1.0, 1000)
    exact = [(np.cos, np.ones(1)), (np.exp, np.full(1, 0.5))]
    pc = PiecewiseConstantField(grid, rng.normal(size=(grid.M + 1, 1)))
    for approx in (pc, dual_linear_projection(pc, grid)):
        tracemalloc.start()
        try:
            got = field_error_norms(exact, approx, mesh, M_h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * parapt.errors.CHUNK_ENTRIES
        want = looped_field_error_norms(exact, approx, mesh, M_h)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-12), key


@pytest.mark.parametrize("pc_M, pl_M", [(3, 6), (6, 2)])
def test_l2l2_distance_closed_form(pc_M, pl_M):
    """theta_a(t) v against theta_b(t) v, with theta_a piecewise constant and
    theta_b continuous piecewise linear on nested grids.  On each piece of
    length h of the common refinement the difference d = theta_a - theta_b
    is linear, so int d^2 dt = h (d0^2 + d0 d1 + d1^2) / 3 from its end
    values, and the distance squared is that sum times (v, v)_M."""
    mesh = build_mesh(5)
    M_h = mass_matrix(mesh)
    rng = np.random.default_rng(5)
    v = rng.normal(size=len(mesh.interior))
    T = 0.9
    pc_grid = uniform_grid(T, pc_M)
    c = rng.normal(size=pc_M)
    a = PiecewiseConstantField(pc_grid,
                               np.append(c, 9.0)[:, None] * v[None, :])
    nodes = uniform_grid(T, pl_M).t
    beta = rng.normal(size=pl_M + 1)
    b = PiecewiseLinearField(make_grid(nodes), beta[:, None] * v[None, :])

    edges = uniform_grid(T, max(pc_M, pl_M)).t
    t0, t1 = edges[:-1], edges[1:]
    mid = pc_grid.interval_index(0.5 * (t0 + t1))
    d0 = c[mid] - np.interp(t0, nodes, beta)
    d1 = c[mid] - np.interp(t1, nodes, beta)
    time_sq = np.sum((t1 - t0) * (d0 * d0 + d0 * d1 + d1 * d1) / 3.0)
    want = np.sqrt(time_sq * float(v @ (M_h @ v)))
    for got in (l2l2_distance(a, b, M_h), l2l2_distance(b, a, M_h),
                l2l2_distance(a, b, M_h, chunk=5)):
        assert got == pytest.approx(want, rel=1e-12)


def test_run_study_without_control_smoke():
    """Without a control component a level is a state and an adjoint
    solve: no sweeps, no control table, and threshold 0."""
    res = run_study(manufactured_smooth(), [4, 8], n_per_side=9)
    assert res.ok and res.iterations == [0, 0] and res.threshold == 0.0
    assert set(res.tables) == {"state", "state_projected", "adjoint"}
    for rows in res.tables.values():
        assert len(rows) == 2
        assert rows[1].eoc["L2"] is not None
    # only the raw state error is still above the coarse-mesh spatial
    # floor at these step sizes, so only it is asserted to shrink
    state = res.tables["state"]
    assert state[1].err["L2"] < state[0].err["L2"]


def _manufactured_dp():
    mesh = build_mesh(9)
    return discretize_problem(manufactured_smooth(), mesh, mass_matrix(mesh),
                              stiffness_matrix(mesh))


def test_run_study_without_control_matches_state_study():
    """With no control component there is nothing to iterate: the
    optimizer's second sweep meets any threshold, and its state is a plain
    solve_state march bit for bit (every step is exactly 1/8 or 1/16)."""
    dp = _manufactured_dp()
    for M in (4, 8):
        grid = uniform_grid(manufactured_smooth().T, M)
        rep = fixed_point_solve(dp, grid)
        assert rep.converged and rep.iterations == 2
        want = solve_state(dp.M_h, dp.K_h, grid, dp.source_terms, dp.y0)
        assert np.array_equal(rep.state.values, want.values)


def test_run_study_zero_threshold_without_control():
    """Without control the second sweep repeats the first's pairing
    exactly, so even a threshold of 0 is met there."""
    dp = _manufactured_dp()
    for M in (4, 8):
        rep = fixed_point_solve(dp, uniform_grid(manufactured_smooth().T, M),
                                threshold=0.0)
        assert rep.converged and rep.iterations == 2


@pytest.mark.parametrize("problem", [example1, manufactured_smooth])
def test_run_study_keeps_the_solutions_its_tables_measure(problem):
    """Each level's kept state and adjoint reproduce that level's state,
    projected-state and adjoint errors to the last bit, and its kept
    control the control error; without a control component the control is
    None."""
    prob = problem()
    res = run_study(prob, [4, 8], n_per_side=9)
    mesh = build_mesh(9)
    M_h = mass_matrix(mesh)
    ex = prob.exact
    y_pairs = [(t.theta, interpolate(mesh, t.profile)) for t in ex.y]
    p_pairs = [(t.theta, interpolate(mesh, t.profile)) for t in ex.p]
    assert list(res.solutions) == [4, 8]
    for level, M in enumerate([4, 8]):
        u, y, p = res.solutions[M]
        err = {key: rows[level].err for key, rows in res.tables.items()}
        assert field_error_norms(y_pairs, y, mesh, M_h) == err["state"]
        assert field_error_norms(
            y_pairs, dual_linear_projection(y, uniform_grid(prob.T, M)),
            mesh, M_h) == err["state_projected"]
        assert field_error_norms(p_pairs, p, mesh, M_h) == err["adjoint"]
        if prob.uad.dim:
            assert control_norms((ex.u_funcs, ex.u_breaks), u,
                                 prob.T) == err["control"]
        else:
            assert u is None and "control" not in err


def test_run_study_records_solver_failures(monkeypatch):
    real = parapt.errors.fixed_point_solve
    monkeypatch.setattr(parapt.errors, "fixed_point_solve",
                        lambda dp, grid, **kw: real(dp, grid, **{
                            **kw, "max_iters": 1}))
    res = run_study(example1(), [4], n_per_side=9)
    assert not res.ok
    assert list(res.failures) == [4] and res.iterations == [1]
    assert set(res.tables) == {"control", "state", "state_projected",
                               "adjoint"}
    assert all(len(rows) == 0 for rows in res.tables.values())


def test_run_study_records_linalg_error_and_continues(monkeypatch):
    real = parapt.errors.fixed_point_solve

    def solve(dp, grid, **kwargs):
        if grid.M == 8:
            raise np.linalg.LinAlgError("leading minor not positive definite")
        return real(dp, grid, **kwargs)

    monkeypatch.setattr(parapt.errors, "fixed_point_solve", solve)
    res = run_study(example1(), [4, 8, 16], n_per_side=9)
    assert res.failures == {
        8: "LinAlgError: leading minor not positive definite"}
    assert res.iterations[1] is None and res.iterations[0] > 0
    assert list(res.solutions) == [4, 16]
    for rows in res.tables.values():
        assert [r.M for r in rows] == [4, 16]


def test_run_study_without_control_records_non_finite_sweep(monkeypatch):
    """A NaN initial value at one level stops that level's sweep at its
    first step; the other levels still run."""
    real = parapt.errors.solve_state

    def solve(M_h, K_h, grid, terms, y0, cache=None):
        if grid.M == 8:
            y0 = np.full_like(y0, np.nan)
        return real(M_h, K_h, grid, terms, y0, cache=cache)

    monkeypatch.setattr(parapt.errors, "solve_state", solve)
    res = run_study(manufactured_smooth(), [4, 8, 16], n_per_side=9)
    assert list(res.failures) == [8]
    assert res.failures[8] == ("NonFiniteSweepError: non-finite value at "
                               "step 1 of a time sweep")
    assert res.iterations == [0, None, 0]
    for rows in res.tables.values():
        assert [r.M for r in rows] == [4, 16]


def test_run_study_rejects_levels_below_two():
    with pytest.raises(ValueError, match="at least 2 time intervals"):
        run_study(manufactured_smooth(), [4, 1], n_per_side=9)
    # failures are keyed by M, so levels must not repeat either
    for levels in ([8, 8], [16, 8]):
        with pytest.raises(ValueError, match="must increase strictly"):
            run_study(manufactured_smooth(), levels, n_per_side=9)
