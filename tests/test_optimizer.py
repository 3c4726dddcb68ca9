import copy
import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import parapt.optimizer
from helpers import apply_B_adjoint
from parapt.control import (AdmissibleSet, clamp_control, constant_control,
                            control_to_rhs_terms)
from parapt.fem import build_mesh, interpolate, mass_matrix, stiffness_matrix
from parapt.optimizer import (DiscreteProblem, FixedPointError,
                              _adjoint_loads, discretize_problem,
                              fixed_point_solve)
from parapt.problems import (example1, example2, manufactured_smooth,
                             sin_profile)
from parapt.quadrature import gauss_points, split_at
from parapt.state import (NonFiniteSweepError, RhsTerm, StepMatrixCache,
                          mass_rows, separable_sq_norm, solve_state,
                          term_moments)
from parapt.timegrid import (PiecewiseConstantField, graded_grid, make_grid,
                             uniform_grid)


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
    got = _adjoint_loads(Y, dp.M_h, grid, target)[1]
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


def _assert_state_of_last_sweep(dp, grid):
    """The reported state is solve_state at the control of the last sweep,
    the one a solve stopped a sweep earlier reports: its interval values
    to 1e-14 and its terminal value to 1e-10, relative in the max norm."""
    rep = fixed_point_solve(dp, grid)
    with pytest.raises(FixedPointError) as info:
        fixed_point_solve(dp, grid, max_iters=rep.iterations - 1)
    control = info.value.report.control
    want = solve_state(dp.M_h, dp.K_h, grid,
                       control_to_rhs_terms(control, dp.shapes)
                       + dp.source_terms, dp.y0).values
    got = rep.state.values
    for rows, rtol in ((slice(0, -1), 1e-14), (-1, 1e-10)):
        assert (np.abs(got[rows] - want[rows]).max()
                <= rtol * np.abs(want[rows]).max())
    assert np.isfinite(info.value.report.state.values).all()


def test_report_state_is_solve_state_of_last_sweep():
    """On a uniform grid the reported interval values are the source's state
    plus the impulse responses under the last sweep's load weights, not a
    march, so they match solve_state to rounding: within 1.3e-15 relative
    for examples 1, 2 and two controls at nh 9 to 33 and M 4 to 64, and
    within 7.1e-15 at nh 65 and 129, M 4 and 8.  The terminal solve
    M^-1 (M - (k/2) K) amplifies that difference: within 4.4e-13 at nh up
    to 33 and 5.2e-11 at nh=129."""
    prob, _, dp = _setup(example2(), 9)
    _assert_state_of_last_sweep(dp, uniform_grid(prob.T, 8))


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
        StepMatrixCache, "solve", lambda self, k, rhs, x0, xhat0=None:
        (np.full_like(rhs, np.nan),) * 3 + (None,) if k == 0
        else real(self, k, rhs, x0, xhat0))
    with pytest.raises(FixedPointError, match="step 6 of a time sweep") \
            as info:
        fixed_point_solve(dp, uniform_grid(prob.T, 5))
    assert not info.value.report.converged
    assert info.value.report.state is not None


def _stops_at_sweep_2(dp, grid):
    with np.errstate(invalid="ignore"), pytest.raises(
            FixedPointError, match="non-finite criterion .* at sweep 2") \
            as info:
        fixed_point_solve(dp, grid)
    rep = info.value.report
    assert rep.iterations == 2 and not rep.converged
    assert not np.isfinite(rep.final_criterion)
    assert np.isfinite(rep.state.values).all()


def test_infinite_pairing_ends_in_fixed_point_error(coarse_setup,
                                                    monkeypatch):
    """An adjoint of inf in the second sweep makes that sweep's criterion
    non-finite: the solve stops there, names the criterion and carries the
    partial report.  The grid is graded, so each sweep marches the
    adjoint."""
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
    _stops_at_sweep_2(dp, graded_grid(prob.T, 5, 2))


def test_infinite_reduced_pairing_ends_in_fixed_point_error(coarse_setup,
                                                            monkeypatch):
    """The uniform-grid twin of the test above: the reduced map's pairing
    of the second sweep is inf."""
    prob, _, dp = coarse_setup
    real = parapt.optimizer._reduced_map

    def reduced_map(*args):
        (pairing, state), sweeps = real(*args), []

        def broken(mom):
            w, misfit = pairing(mom)
            sweeps.append(w)
            return (np.full_like(w, np.inf) if len(sweeps) == 2 else w), misfit
        return broken, state

    monkeypatch.setattr(parapt.optimizer, "_reduced_map", reduced_map)
    _stops_at_sweep_2(dp, uniform_grid(prob.T, 5))


def _setup(prob, nh):
    mesh = build_mesh(nh)
    return prob, mesh, discretize_problem(prob, mesh, mass_matrix(mesh),
                                          stiffness_matrix(mesh))


def _two_controls(nh):
    """Example 1 with a second control, on sin(2 pi x) sin(pi y) plus a part
    that overlaps the first shape, in its own box: the reduced map's cross
    blocks G_i'i, i' != i, then couple the two.  Both components have
    active and inactive pieces."""
    prob, mesh, dp = _setup(example1(), nh)
    g = interpolate(mesh, lambda x, y: (np.sin(2 * np.pi * x)
                                        + x * np.sin(np.pi * x))
                    * np.sin(np.pi * y))
    box = AdmissibleSet(np.array([-25.0, -3.0]), np.array([-1.0, 3.0]))
    return prob, mesh, dataclasses.replace(dp, shapes=[dp.shapes[0], g],
                                           box=box)


@pytest.mark.parametrize("M", [4, 8, 64])
@pytest.mark.parametrize("setup", [
    lambda: _setup(example1(), 9), lambda: _setup(example1(), 17),
    lambda: _setup(example2(), 9), lambda: _setup(example2(), 17),
    lambda: _two_controls(9), lambda: _two_controls(17)],
    ids=["example1-nh9", "example1-nh17", "example2-nh9", "example2-nh17",
         "two-controls-nh9", "two-controls-nh17"])
@pytest.mark.parametrize("make", [
    uniform_grid, lambda T, M: make_grid(np.linspace(0.0, T, M + 1)),
    lambda T, M: graded_grid(T, M, 1.0)],
    ids=["uniform", "linspace", "graded-gamma-1"])
def test_reduced_state_is_solve_state_of_last_sweep(setup, M, make):
    """The superposed state matches the marched one on every grid of one
    step size, the cross responses of two controls included."""
    prob, _, dp = setup()
    _assert_state_of_last_sweep(dp, make(prob.T, M))


def test_non_finite_superposed_state_ends_after_the_last_sweep(
        coarse_setup, monkeypatch):
    """A NaN load weight c_i5 that reaches the superposed state, and not the
    sweeps, makes the interval values non-finite from step 6 on: the error
    names that step and the last sweep, and the report has no fields."""
    prob, _, dp = coarse_setup
    grid = uniform_grid(prob.T, 8)
    sweeps = fixed_point_solve(dp, grid).iterations
    real = parapt.optimizer._reduced_map

    def reduced_map(*args):
        pairing, state = real(*args)

        def broken(mom):
            mom = mom.copy()
            mom[0, 5, 0] = np.nan
            return state(mom)
        return pairing, broken

    monkeypatch.setattr(parapt.optimizer, "_reduced_map", reduced_map)
    with pytest.raises(FixedPointError) as info:
        fixed_point_solve(dp, grid)
    _fails_with(info, f"non-finite value at step 6 of a time sweep after "
                f"fixed-point sweep {sweeps}", sweeps, True, False)


def _marching(monkeypatch):
    """Make fixed_point_solve march every sweep, as on a graded grid."""
    monkeypatch.setattr(parapt.optimizer, "_one_step_size", lambda k: False)


@pytest.mark.parametrize("setup", [
    lambda: _setup(example1(), 9), lambda: _setup(example1(), 17),
    lambda: _setup(example2(), 9), lambda: _setup(example2(), 17),
    lambda: _setup(manufactured_smooth(), 9), lambda: _two_controls(9),
    lambda: _two_controls(17)],
    ids=["example1-nh9", "example1-nh17", "example2-nh9", "example2-nh17",
         "manufactured-nh9", "two-controls-nh9", "two-controls-nh17"])
def test_reduced_map_sweeps_as_the_marches_do(setup, monkeypatch):
    """On a uniform grid the sweeps by the reduced map and by marches give
    the same iterations, controls, adjoints and objectives to rounding."""
    prob, _, dp = setup()
    _assert_sweeps_as_marched(dp, uniform_grid(prob.T, 8), monkeypatch)


def _assert_sweeps_as_marched(dp, grid, monkeypatch):
    """The reduced map's sweeps on ``grid`` against marched ones, to 1e-12
    of each compared field's size; returns the reduced solve's report."""
    reduced = fixed_point_solve(dp, grid, threshold=1e-11)
    _marching(monkeypatch)
    marched = fixed_point_solve(dp, grid, threshold=1e-11)
    assert reduced.iterations == marched.iterations
    for got, want in [
            (reduced.control.breaks, marched.control.breaks),
            (reduced.control.vals, marched.control.vals),
            ([reduced.adjoint.values], [marched.adjoint.values]),
            ([reduced.objective_history], [marched.objective_history])]:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_allclose(
                a, b, rtol=0, atol=1e-12 * np.abs(b).max(initial=0.0))
    assert reduced.final_criterion == pytest.approx(marched.final_criterion,
                                                    rel=0, abs=1e-12)
    return reduced


def _mode2(mesh):
    """sin(2 pi x) sin(2 pi y) on ``mesh``: off the span of every shape of
    example 1, example 2 and _two_controls."""
    return interpolate(mesh, sin_profile(2, 2))


def _with_y0(setup, y0):
    """``setup`` with y0 replaced by ``y0(mesh, dp)``."""
    def make():
        prob, mesh, dp = setup()
        return prob, mesh, dataclasses.replace(dp, y0=y0(mesh, dp))
    return make


def _with_source(setup, profile):
    """``setup`` with one more source term, on ``profile(mesh, dp)``."""
    def make():
        prob, mesh, dp = setup()
        extra = RhsTerm(profile(mesh, dp), lambda t: np.cos(7.0 * t))
        return prob, mesh, dataclasses.replace(
            dp, source_terms=dp.source_terms + [extra])
    return make


_OFF_SPAN_SOURCE = _with_source(lambda: _setup(example2(), 9),
                                lambda mesh, dp: _mode2(mesh))


@pytest.mark.parametrize("setup, folds", [
    (_OFF_SPAN_SOURCE, False),
    (_with_y0(lambda: _setup(example2(), 9),
              lambda mesh, dp: dp.y0 + _mode2(mesh)), False),
    (_with_source(lambda: _two_controls(9), lambda mesh, dp:
                  0.3 * dp.shapes[0] + 2.0 * dp.shapes[1]), True),
    (_with_y0(lambda: _setup(example1(), 9),
              lambda mesh, dp: 3.7 * dp.shapes[0]), True),
    (_with_y0(lambda: _setup(example1(), 9),
              lambda mesh, dp: dp.shapes[0] + 1e-9 * _mode2(mesh)), False)],
    ids=["source-off-span", "y0-off-span", "two-controls-source-in-span",
         "y0-folds", "y0-1e-9-off-span"])
def test_data_in_the_shapes_span_folds_into_the_load_weights(
        setup, folds, monkeypatch):
    """A source profile or y0 in the span of the shapes is a load on the
    impulse responses, and only data off the span is marched: (D + 1) M
    step solves when everything folds, (D + 2) M otherwise.  Either way
    the sweeps are the marched ones, and the reported state is solve_state
    at the last sweep's control."""
    prob, _, dp = setup()
    D, M = len(dp.shapes), 8
    grid = uniform_grid(prob.T, M)
    _assert_state_of_last_sweep(dp, grid)
    reduced = _assert_sweeps_as_marched(dp, grid, monkeypatch)
    steps = [k for kind, k, _ in reduced.record if kind != "factor" and k > 0]
    assert len(steps) == (D + 1 + (not folds)) * M


def test_step_solves_do_not_grow_with_sweeps():
    """A uniform grid makes (D + 1) M step solves and the k = 0 one,
    whatever the number of sweeps, M more with a source off the span of
    the shapes; a graded grid 2 M per sweep."""
    M = 8

    def solves(dp, grid, threshold):
        rep = fixed_point_solve(dp, grid, threshold=threshold)
        steps = [k for kind, k, _ in rep.record if kind != "factor"]
        assert steps.count(0.0) == 1
        return rep.iterations, len(steps) - 1

    for (prob, _, dp), marches in [(_setup(example2(), 9), 1 + 1),
                                   (_OFF_SPAN_SOURCE(), 1 + 2)]:
        loose, tight = (solves(dp, uniform_grid(prob.T, M), threshold)
                        for threshold in (1e-5, 1e-11))
        assert loose[0] < tight[0]
        assert loose[1] == tight[1] == marches * M
        for threshold in (1e-5, 1e-11):
            sweeps, steps = solves(dp, graded_grid(prob.T, M, 2), threshold)
            assert steps == 2 * sweeps * M


@pytest.mark.parametrize("prob, M, make", [
    (example1, 198, uniform_grid),
    (example2, 239, uniform_grid),
    (example2, 239, lambda T, M: make_grid(np.linspace(0.0, T, M + 1))),
    (example2, 239, lambda T, M: graded_grid(T, M, 1.0))],
    ids=["example1-M198", "example2-M239", "example2-M239-linspace",
         "example2-M239-graded-gamma-1"])
def test_uniform_grids_take_the_reduced_map_with_one_factor(prob, M, make):
    """A uniform grid whose steps differ in the last bits, however it is
    made, takes the reduced map on one factor: 2 M banded step solves for
    D = 1, whose source and y0 fold into the load weights, and the k = 0
    one by PCG."""
    prob, _, dp = _setup(prob(), 9)
    rep = fixed_point_solve(dp, make(prob.T, M))
    assert Counter((kind, k == 0.0) for kind, k, _ in rep.record) == {
        ("factor", False): 1, ("band", False): 2 * M, ("pcg", True): 1}


@pytest.mark.parametrize("prob, lower, upper, start, sweeps", [
    (example2, -np.inf, 0.4, 0.4, 3), (example2, -np.inf, np.inf, 0.0, 3),
    (example1, -np.inf, -1.0, -1.0, 4)],
    ids=["example2-upper", "example2-unbounded", "example1-upper"])
def test_default_start_is_finite(prob, lower, upper, start, sweeps):
    """Where the lower bound is -inf the default start is the upper bound,
    or 0 where that is infinite too, and the solve is the one started
    there, with no clamp of an infinite value."""
    prob, _, dp = _setup(prob(), 9)
    dp = dataclasses.replace(dp, box=AdmissibleSet(np.array([lower]),
                                                   np.array([upper])))
    grid = uniform_grid(prob.T, 8)
    rep = fixed_point_solve(dp, grid)
    started = fixed_point_solve(dp, grid, u_init=constant_control(
        grid, np.array([start]), dp.box))
    assert rep.converged and rep.iterations == started.iterations == sweeps
    np.testing.assert_array_equal(rep.control.vals[0],
                                  started.control.vals[0])


def test_no_control_marches_state_and_adjoint_once():
    """Without a control component nothing depends on the control, so the
    second sweep reuses the first's pairing: one factor, 2 M banded step
    solves and the k = 0 one, in two sweeps."""
    prob, _, dp = _setup(manufactured_smooth(), 9)
    assert not dp.shapes
    M = 4
    rep = fixed_point_solve(dp, uniform_grid(prob.T, M))
    assert rep.iterations == 2 and rep.converged
    assert [kind for kind, _, _ in rep.record] == (
        ["factor"] + ["band"] * (2 * M) + ["pcg"])


def test_reduced_map_setup_holds_one_square_array():
    """The reduced map's set-up sums G's diagonals and scales it in place:
    a fixed-point solve at nh=9 and M=2048 allocates at most 1.5 M x M
    arrays of doubles at its peak."""
    prob, _, dp = _setup(example2(), 9)
    M = 2048
    tracemalloc.start()
    try:
        rep = fixed_point_solve(dp, uniform_grid(prob.T, M))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert peak <= 1.5 * 8 * M * M


def test_superposed_state_holds_no_toeplitz_matrix():
    """The reported state is summed by row blocks of the Toeplitz matrices
    of the load weights: a fixed-point solve at nh=9 and M=4096, whose G
    alone takes one M x M array of doubles, peaks at most at 1.5 of them,
    so no M x M Toeplitz matrix exists beside G."""
    prob, _, dp = _setup(example2(), 9)
    M = 4096
    tracemalloc.start()
    try:
        rep = fixed_point_solve(dp, uniform_grid(prob.T, M))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert peak <= 1.5 * 8 * M * M


_STATE_RSS = textwrap.dedent("""
    import parapt.optimizer as opt
    from parapt.fem import build_mesh, mass_matrix, stiffness_matrix
    from parapt.problems import example2
    from parapt.timegrid import uniform_grid

    prob, mesh = example2(), build_mesh(9)
    dp = opt.discretize_problem(prob, mesh, mass_matrix(mesh),
                                stiffness_matrix(mesh))
    real, growth = opt._reduced_map, []

    def peak():                 # this process's peak resident KiB
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status
                        if line.startswith("VmHWM:"))

    def reduced_map(*args):
        pairing, state = real(*args)

        def measured(mom):
            before = peak()
            y = state(mom)
            growth.append(peak() - before)
            return y
        return pairing, measured

    opt._reduced_map = reduced_map
    assert opt.fixed_point_solve(dp, uniform_grid(prob.T, 4096)).converged
    print(growth[0] * 1024)     # in bytes
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak resident size in /proc")
def test_superposed_state_grows_peak_rss_by_under_half_a_square_array():
    """numpy's matmul copies a strided operand where tracemalloc does not
    see it, so a fresh process reads its peak resident size around the
    state's sum: at nh=9 and M=4096, with G alive, it grows by less than
    half of one M x M array of doubles.  A product with the whole sliding
    window of load weights, copied inside matmul, grows it by a full one.
    The peak is VmHWM, not ru_maxrss: Linux starts a spawned process's
    ru_maxrss at its parent's, and the test session's own peak hides
    that growth."""
    M = 4096
    src = os.path.dirname(os.path.dirname(parapt.optimizer.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", _STATE_RSS], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 0.5 * 8 * M * M


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "marched"])
def test_non_finite_data_ends_in_the_first_sweep(coarse_setup, monkeypatch,
                                                 reduced):
    """A NaN in y0 stops the state march of the first sweep, or of the
    reduced map's set-up, which counts as that sweep."""
    prob, _, dp = coarse_setup
    broken = dataclasses.replace(dp, y0=np.full_like(dp.y0, np.nan))
    if not reduced:
        _marching(monkeypatch)
    with pytest.raises(FixedPointError, match="non-finite value at step 1 "
                       "of a time sweep in fixed-point sweep 1") as info:
        fixed_point_solve(broken, uniform_grid(prob.T, 5))
    assert info.value.report.state is None
    assert not info.value.report.converged


def _fails_with(info, message, iterations, finite, fields, adjoint=None):
    """The FixedPointError's message, and its report's sweep count, failed
    status, criterion finiteness and whether state and adjoint are set,
    the adjoint as ``fields`` unless given as ``adjoint``."""
    rep = info.value.report
    assert str(info.value) == message
    assert rep.iterations == iterations and rep.converged is False
    assert bool(np.isfinite(rep.final_criterion)) is finite
    assert (rep.state is not None, rep.adjoint is not None) == (
        fields, fields if adjoint is None else adjoint)


def test_sweep_budget_exit_on_the_reduced_path(coarse_setup):
    prob, _, dp = coarse_setup
    with pytest.raises(FixedPointError) as info:
        fixed_point_solve(dp, uniform_grid(prob.T, 5), max_iters=2)
    crit = info.value.report.final_criterion
    _fails_with(info, f"no convergence in 2 sweeps (last criterion "
                f"{crit:.3e}, threshold 1.0e-05)", 2, True, True)


def test_adjoint_failure_in_a_later_marched_sweep(coarse_setup,
                                                   monkeypatch):
    """The adjoint march of the second sweep on a graded grid fails: the
    report keeps that sweep's state and the first sweep's adjoint."""
    prob, _, dp = coarse_setup
    real, calls = parapt.optimizer.march_adjoint, []

    def march(*args):
        calls.append(None)
        if len(calls) == 2:
            raise NonFiniteSweepError(3)
        return real(*args)

    monkeypatch.setattr(parapt.optimizer, "march_adjoint", march)
    with pytest.raises(FixedPointError) as info:
        fixed_point_solve(dp, graded_grid(prob.T, 5, 2))
    _fails_with(info, "non-finite value at step 3 of a time sweep in "
                "fixed-point sweep 2", 2, False, True)


@pytest.mark.parametrize("stage", ["final-march", "terminal-solve"])
def test_failure_after_the_last_sweep(coarse_setup, monkeypatch, stage):
    """After converged reduced sweeps, the final adjoint march (the one
    march_adjoint call of a reduced solve) or the terminal solve fails: the
    error names the last sweep; the report has the superposed state, and
    the adjoint only if the final march went through."""
    prob, _, dp = coarse_setup
    grid = uniform_grid(prob.T, 5)
    sweeps = fixed_point_solve(dp, grid).iterations

    def march(*args):
        raise NonFiniteSweepError(4)

    def terminal(cache, y):
        raise NonFiniteSweepError(6)

    if stage == "final-march":
        monkeypatch.setattr(parapt.optimizer, "march_adjoint", march)
    else:
        monkeypatch.setattr(parapt.optimizer, "terminal_solve", terminal)
    with pytest.raises(FixedPointError) as info:
        fixed_point_solve(dp, grid)
    step = 4 if stage == "final-march" else 6
    _fails_with(info, f"non-finite value at step {step} of a time sweep "
                f"after fixed-point sweep {sweeps}", sweeps, True, True,
                adjoint=stage == "terminal-solve")


@pytest.mark.parametrize("max_iters", [0, -3, 2.5, "4", None])
def test_rejects_bad_sweep_budget(monkeypatch, max_iters):
    """A budget that is not an integer of at least 1 is rejected before any
    step solve."""
    prob, _, dp = _setup(example2(), 9)
    monkeypatch.setattr(StepMatrixCache, "solve", None)
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        fixed_point_solve(dp, uniform_grid(prob.T, 8), max_iters=max_iters)


@pytest.mark.parametrize("u_init, message", [
    (lambda grid, box: constant_control(grid, [-1.0, -1.0], box),
     r"got \[\[0.0, 0.1\], \[0.0, 0.1\]\]"),
    (lambda grid, box: constant_control(grid, np.zeros(0), box),
     r"got \[\]$"),
    (lambda grid, box: constant_control(uniform_grid(2 * grid.T, 8),
                                        [-1.0], box), r"got \[\[0.0, 0.2\]\]"),
    (lambda grid, box: clamp_control(grid.t[1:], np.zeros((1, grid.M)),
                                     box), r"got \[\[0.0125, 0.1\]\]"),
], ids=["two-components", "no-component", "past-T", "after-0"])
def test_rejects_bad_initial_control(coarse_setup, monkeypatch, u_init,
                                     message):
    """An initial control with other than D components, or whose
    breakpoints do not run from 0 to T, is rejected before any step
    solve."""
    prob, _, dp = coarse_setup
    grid = uniform_grid(prob.T, 8)
    wide = AdmissibleSet(np.full(2, -np.inf), np.full(2, np.inf))
    u = u_init(grid, wide)
    monkeypatch.setattr(StepMatrixCache, "solve", None)
    with pytest.raises(ValueError, match=message):
        fixed_point_solve(dp, grid, u_init=u)


def _reduced_pairing(dp, grid, monkeypatch):
    """The pairing of the reduced map that a solve on ``grid`` builds."""
    real, pairings = parapt.optimizer._reduced_map, []

    def reduced_map(*args):
        pairings.append(real(*args))
        return pairings[-1]

    monkeypatch.setattr(parapt.optimizer, "_reduced_map", reduced_map)
    fixed_point_solve(dp, grid)
    return pairings[0][0]


def test_reduced_sweep_holds_no_copy_of_G(monkeypatch):
    """With two controls one sweep's pairing allocates at most 0.05 of G's
    8 (2 M)^2 bytes at its peak: the product reads G in place."""
    prob, _, dp = _two_controls(9)
    M = 512
    grid = uniform_grid(prob.T, M)
    pairing = _reduced_pairing(dp, grid, monkeypatch)
    mom = np.ones((2, M, 2))
    tracemalloc.start()
    try:
        pairing(mom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * 8 * (2 * M) ** 2


def test_reduced_map_G_is_symmetric(monkeypatch):
    """G_i'i(m, j) = G_ii'(j, m), as M is symmetric: the pairing's response
    to each unit hat moment, less its value at zero moments, is G's
    column."""
    prob, _, dp = _two_controls(9)
    D, M = 2, 16
    pairing = _reduced_pairing(dp, uniform_grid(prob.T, M), monkeypatch)
    zero = pairing(np.zeros((D, M, 2)))[0]
    G = np.empty((D, M, D, M))
    for i in range(D):
        for j in range(M):
            mom = np.zeros((D, M, 2))
            mom[i, j, 0] = 1.0
            G[..., i, j] = (pairing(mom)[0] - zero)[:, :M]
    G = G.reshape(D * M, D * M)
    assert np.abs(G).max() > 0
    np.testing.assert_allclose(G, G.T, rtol=0, atol=1e-12 * np.abs(G).max())
