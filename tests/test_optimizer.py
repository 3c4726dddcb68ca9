import copy
import dataclasses

import numpy as np
import pytest

import parapt.optimizer
from helpers import apply_B_adjoint
from parapt.control import (AdmissibleSet, clamp_control, constant_control,
                            control_to_rhs_terms)
from parapt.fem import build_mesh, interpolate, mass_matrix, stiffness_matrix
from parapt.optimizer import (DiscreteProblem, FixedPointError,
                              _tracking_misfit_sq, discretize_problem,
                              fixed_point_solve)
from parapt.problems import example1, example2
from parapt.quadrature import gauss_points, split_at
from parapt.state import (RhsTerm, StepMatrixCache, mass_rows,
                          separable_sq_norm, solve_state, term_moments)
from parapt.timegrid import PiecewiseConstantField, make_grid, uniform_grid


@pytest.fixture(scope="module")
def coarse_setup():
    prob = example1()
    mesh = build_mesh(17)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    return prob, mesh, discretize_problem(prob, mesh, Mh, Kh)


def test_huge_regularization_collapses_to_zero_control():
    mesh = build_mesh(9)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    g = interpolate(mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    box = AdmissibleSet(np.array([-1.0]), np.array([1.0]))
    dp = DiscreteProblem(Mh, Kh, 1e6, box, [g], np.zeros(Mh.shape[0]), [], [])
    grid = uniform_grid(1.0, 4)
    rep = fixed_point_solve(dp, grid,
                            u_init=constant_control(grid, np.zeros(1), box))
    assert rep.iterations <= 2
    assert np.abs(np.concatenate(rep.control.vals)).max() <= 1e-9


@pytest.mark.parametrize("change, message", [
    (lambda dp: {"M_h": dp.M_h[:, :-1]}, "square"),
    (lambda dp: {"K_h": dp.K_h[:-1, :-1]}, "square of one size"),
    (lambda dp: {"y0": dp.y0[:-1]}, "length n"),
    (lambda dp: {"shapes": [dp.shapes[0][:-1]]}, "length n"),
    (lambda dp: {"source_terms": [RhsTerm(dp.y0[:-1], np.cos)]},
     "length n"),
    (lambda dp: {"yd_terms": dp.yd_terms + [RhsTerm(dp.y0[:-1], np.cos)]},
     "length n"),
    (lambda dp: {"shapes": dp.shapes * 2}, "2 control shapes"),
    (lambda dp: {"alpha": 0.0}, "alpha"),
    (lambda dp: {"alpha": -1.0}, "alpha"),
    (lambda dp: {"alpha": np.inf}, "alpha"),
    (lambda dp: {"alpha": np.nan}, "alpha"),
], ids=["M_h-not-square", "K_h-other-shape", "y0-length", "shape-length",
        "source-length", "target-length", "shapes-vs-box", "alpha-zero",
        "alpha-negative", "alpha-inf", "alpha-nan"])
def test_discrete_problem_rejects_inconsistent_data(coarse_setup, change,
                                                    message):
    _, _, dp = coarse_setup
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(dp, **change(dp))


def test_non_finite_criterion_fails_fast(coarse_setup):
    """With alpha = 0 the clamp of -w/alpha is NaN where w vanishes, so the
    second sweep's criterion is NaN; the solve stops there."""
    prob, _, dp = coarse_setup
    broken = copy.copy(dp)
    broken.alpha = 0.0      # set after construction, which rejects it
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(FixedPointError, match="non-finite") as info:
        fixed_point_solve(broken, uniform_grid(prob.T, 4))
    assert info.value.report.iterations == 2
    assert not info.value.report.converged


@pytest.mark.parametrize("threshold", [-1.0, np.nan, np.inf])
def test_rejects_bad_threshold(coarse_setup, threshold):
    prob, _, dp = coarse_setup
    with pytest.raises(ValueError, match="non-negative and finite"):
        fixed_point_solve(dp, uniform_grid(prob.T, 4), threshold=threshold)


def test_tracking_misfit_against_pointwise_quadrature(coarse_setup, rng):
    """The batched misfit against sampling ||y_k(t) - y_d(t)||^2 at 10
    Gauss points per interval, with a second target term so that the
    cross terms between target terms count."""
    prob, _, dp = coarse_setup
    grid = make_grid([0.0, 0.01, 0.05, 0.06, 0.1])
    n = dp.M_h.shape[0]
    y_k = PiecewiseConstantField(grid, rng.normal(size=(grid.M + 1, n)))
    yd = dp.yd_terms + [RhsTerm(rng.normal(size=n), lambda t: np.sin(9 * t))]
    pts, wts = gauss_points(grid.t[:-1], grid.t[1:], rule=10)
    want = 0.0
    for m in range(grid.M):
        for t, w in zip(pts[m], wts[m]):
            d = y_k.values[m] - sum(term.temporal(t) * term.spatial
                                    for term in yd)
            want += w * float(d @ (dp.M_h @ d))
    Y = y_k.values[:grid.M]
    target = (separable_sq_norm(yd, dp.M_h, grid),
              term_moments(yd, grid).sum(axis=2),
              mass_rows(dp.M_h, [term.spatial for term in yd]))
    got = _tracking_misfit_sq(Y, (dp.M_h @ Y.T).T, grid, target)
    assert got == pytest.approx(want, rel=1e-12)


def test_iteration_count_small_and_mesh_insensitive(coarse_setup):
    prob, _, dp = coarse_setup
    counts = []
    for M in (5, 10, 20):
        rep = fixed_point_solve(dp, uniform_grid(prob.T, M))
        assert rep.converged and rep.final_criterion < 1e-5
        counts.append(rep.iterations)
    assert all(3 <= c <= 5 for c in counts)
    assert max(counts) - min(counts) <= 1


def test_default_start_is_constant_lower_bound(coarse_setup):
    prob, _, dp = coarse_setup
    grid = uniform_grid(prob.T, 5)
    a = fixed_point_solve(dp, grid)
    b = fixed_point_solve(dp, grid,
                          u_init=constant_control(grid, prob.uad.lower,
                                                  prob.uad))
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(np.concatenate(a.control.vals),
                                  np.concatenate(b.control.vals))


def test_objective_history_decreases(coarse_setup):
    prob, _, dp = coarse_setup
    rep = fixed_point_solve(dp, uniform_grid(prob.T, 10))
    hist = np.asarray(rep.objective_history)
    assert rep.objective == hist[-1]
    assert np.all(np.diff(hist) <= 1e-12)


def test_reported_pair_satisfies_clamp_consistency(coarse_setup):
    """One extra sweep from the reported control moves the pairing by no
    more than the stopping threshold."""
    prob, _, dp = coarse_setup
    grid = uniform_grid(prob.T, 8)
    rep = fixed_point_solve(dp, grid)
    w = apply_B_adjoint(rep.adjoint, dp.shapes, dp.M_h)
    again = fixed_point_solve(dp, grid, u_init=rep.control, max_iters=3)
    w2 = apply_B_adjoint(again.adjoint, dp.shapes, dp.M_h)
    assert np.abs(w2 - w).max() <= 1e-5


def test_zero_threshold_stops_at_an_exact_fixed_point():
    """Example 2 at nh=9 and M=4 repeats its pairing exactly within a few
    sweeps, so a threshold of 0 is met rather than running out of
    sweeps."""
    prob, mesh = example2(), build_mesh(9)
    dp = discretize_problem(prob, mesh, mass_matrix(mesh),
                            stiffness_matrix(mesh))
    rep = fixed_point_solve(dp, uniform_grid(prob.T, 4), threshold=0.0)
    assert rep.converged and rep.final_criterion == 0.0


def test_variational_inequality_for_reported_pair(coarse_setup, rng):
    """alpha*u + B'p paired against v - u is nonnegative for admissible v:
    the discrete first-order optimality condition."""
    prob, _, dp = coarse_setup
    grid = uniform_grid(prob.T, 8)
    rep = fixed_point_solve(dp, grid, threshold=1e-11)
    u = rep.control
    w = apply_B_adjoint(rep.adjoint, dp.shapes, dp.M_h)
    for _ in range(5):
        v = clamp_control(grid.t,
                          rng.uniform(-30.0, 5.0, size=(1, grid.M + 1)),
                          dp.box)
        edges = split_at(np.array([0.0, prob.T]),
                         np.concatenate([u.breaks[0], v.breaks[0], grid.t]))
        pts, wts = gauss_points(edges[:-1], edges[1:])
        grad = dp.alpha * u.value(0, pts) + np.interp(pts, grid.t, w[0])
        integral = float((wts * grad * (v.value(0, pts) - u.value(0, pts))).sum())
        assert integral >= -1e-8


def test_failure_report_carries_last_state(coarse_setup):
    prob, _, dp = coarse_setup
    with pytest.raises(FixedPointError) as info:
        fixed_point_solve(dp, uniform_grid(prob.T, 5), max_iters=2)
    rep = info.value.report
    assert rep.converged is False
    assert rep.iterations == 2
    assert np.isfinite(rep.final_criterion) and rep.final_criterion > 1e-5
    assert rep.control is not None and rep.adjoint is not None


def test_report_state_is_solve_state_of_last_sweep():
    """The sweeps leave the state's terminal value out and the report gets
    it once, so the reported state is solve_state at the control of the
    last sweep, bit for bit.  That control is the one a solve stopped a
    sweep earlier reports.  Every step of this grid is exactly 1/16, so a
    fresh factor equals the one the sweeps reuse."""
    prob = example2()
    mesh = build_mesh(9)
    dp = discretize_problem(prob, mesh, mass_matrix(mesh),
                            stiffness_matrix(mesh))
    grid = uniform_grid(prob.T, 8)
    rep = fixed_point_solve(dp, grid)
    with pytest.raises(FixedPointError) as info:
        fixed_point_solve(dp, grid, max_iters=rep.iterations - 1)
    control = info.value.report.control
    want = solve_state(dp.M_h, dp.K_h, grid,
                       control_to_rhs_terms(control, dp.shapes)
                       + dp.source_terms, dp.y0)
    assert np.array_equal(rep.state.values, want.values)
    assert np.isfinite(info.value.report.state.values).all()


def test_one_terminal_solve_per_fixed_point_solve(coarse_setup):
    """The terminal solve is the one k = 0 step solve."""
    prob, _, dp = coarse_setup
    rep = fixed_point_solve(dp, uniform_grid(prob.T, 5))
    assert rep.iterations >= 3
    assert [kind for kind, k, _ in rep.record if k == 0] == ["pcg"]


def test_non_finite_terminal_value_ends_in_fixed_point_error(coarse_setup,
                                                             monkeypatch):
    prob, _, dp = coarse_setup
    real = StepMatrixCache.solve
    monkeypatch.setattr(
        StepMatrixCache, "solve", lambda self, k, rhs, x0, repeats:
        np.full_like(rhs, np.nan) if k == 0 else real(self, k, rhs, x0,
                                                      repeats))
    with pytest.raises(FixedPointError, match="step 6 of a time sweep") \
            as info:
        fixed_point_solve(dp, uniform_grid(prob.T, 5))
    assert not info.value.report.converged
    assert info.value.report.state is not None


def test_infinite_pairing_ends_in_fixed_point_error(coarse_setup,
                                                    monkeypatch):
    """An adjoint of inf in the second sweep makes that sweep's criterion
    non-finite: the solve stops there, names the criterion and carries the
    partial report."""
    prob, _, dp = coarse_setup
    real = parapt.optimizer.march_adjoint
    sweeps = []

    def march(*args):
        p = real(*args)
        sweeps.append(p)
        if len(sweeps) == 2:
            p.values[:] = np.inf
        return p

    monkeypatch.setattr(parapt.optimizer, "march_adjoint", march)
    with np.errstate(invalid="ignore"), pytest.raises(
            FixedPointError, match="non-finite criterion .* at sweep 2") \
            as info:
        fixed_point_solve(dp, uniform_grid(prob.T, 5))
    rep = info.value.report
    assert rep.iterations == 2 and not rep.converged
    assert not np.isfinite(rep.final_criterion)
    assert np.isfinite(rep.state.values).all()
