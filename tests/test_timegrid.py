import numpy as np
import pytest

from helpers import interval_mean_projection
from parapt.timegrid import (PiecewiseConstantField, PiecewiseLinearField,
                             dual_linear_projection, graded_grid, make_grid,
                             uniform_grid)


def test_uniform_grid_layout():
    grid = uniform_grid(0.1, 4)
    assert grid.M == 4
    np.testing.assert_allclose(grid.t, [0.0, 0.025, 0.05, 0.075, 0.1])
    np.testing.assert_allclose(grid.k, 0.025)
    np.testing.assert_allclose(grid.midpoints, [0.0125, 0.0375, 0.0625, 0.0875])
    np.testing.assert_allclose(grid.dual_nodes,
                               [0.0, 0.0125, 0.0375, 0.0625, 0.0875, 0.1])


def test_make_grid_nonuniform_and_interval_lookup():
    grid = make_grid([0.0, 0.1, 0.4, 1.0])
    np.testing.assert_allclose(grid.k, [0.1, 0.3, 0.6])
    assert grid.k_max == 0.6
    # left-closed intervals, final time belongs to the last one
    idx = grid.interval_index(np.array([0.0, 0.05, 0.1, 0.4, 0.99, 1.0]))
    np.testing.assert_array_equal(idx, [0, 0, 1, 2, 2, 2])


def test_graded_grid_follows_power_law():
    T, M, gamma = 0.5, 8, 2.0
    grid = graded_grid(T, M, gamma)
    np.testing.assert_allclose(grid.t, T * (np.arange(M + 1) / M) ** gamma)
    assert np.all(np.diff(grid.k) > 0)


def test_piecewise_constant_field_lookup():
    grid = make_grid([0.0, 0.5, 1.0])
    field = PiecewiseConstantField(grid, np.array([[1.0], [2.0], [7.0]]))
    t = np.array([0.0, 0.49, 0.5, 0.99, 1.0])
    np.testing.assert_allclose(field.value(t)[:, 0], [1.0, 1.0, 2.0, 2.0, 7.0])
    # scalar times: inside an interval, on an inner node, and t = T
    np.testing.assert_array_equal(field.value(0.3), [1.0])
    np.testing.assert_array_equal(field.value(0.5), [2.0])
    np.testing.assert_array_equal(field.value(1.0), [7.0])


def test_piecewise_linear_field_interpolates():
    field = PiecewiseLinearField(np.array([0.0, 1.0, 3.0]),
                                 np.array([[0.0], [2.0], [0.0]]))
    np.testing.assert_allclose(field.value(np.array([0.5, 2.0]))[:, 0],
                               [1.0, 1.0])


def test_interval_means_exact_for_quadratics():
    grid = make_grid([0.0, 0.3, 1.0])
    proj = interval_mean_projection(lambda t: t ** 2, grid)
    expect = [(0.3 ** 3) / (3 * 0.3), (1.0 - 0.3 ** 3) / (3 * 0.7), 0.0]
    np.testing.assert_allclose(proj.values, expect, rtol=1e-13, atol=1e-16)


def test_dual_projection_reproduces_linears():
    grid = uniform_grid(2.0, 5)
    w = interval_mean_projection(lambda t: 3.0 - 0.5 * t, grid)
    lifted = dual_linear_projection(w, grid)
    t = np.linspace(0.0, 2.0, 41)
    np.testing.assert_allclose(lifted.value(t), 3.0 - 0.5 * t, rtol=1e-13)


def test_dual_projection_endpoint_extrapolation(rng):
    grid = uniform_grid(1.0, 3)
    vals = rng.normal(size=(4, 2))
    w = PiecewiseConstantField(grid, vals)
    lifted = dual_linear_projection(w, grid)
    np.testing.assert_allclose(lifted.values[0], 1.5 * vals[0] - 0.5 * vals[1],
                               rtol=1e-13)
    np.testing.assert_allclose(lifted.values[-1], 1.5 * vals[2] - 0.5 * vals[1],
                               rtol=1e-13)


@pytest.mark.parametrize("M", [4, 16, 64])
def test_dual_projection_sup_stability(rng, M):
    grid = uniform_grid(1.0, M)
    w = PiecewiseConstantField(grid, rng.normal(size=(M + 1, 1)))
    lifted = dual_linear_projection(w, grid)
    bound = np.abs(w.values[:-1]).max()
    assert np.abs(lifted.values).max() <= 2.0 * bound + 1e-12


def test_dual_projection_second_order():
    errs = []
    for M in (8, 16, 32):
        grid = uniform_grid(1.0, M)
        w = interval_mean_projection(np.sin, grid)
        lifted = dual_linear_projection(w, grid)
        t = np.linspace(0.0, 1.0, 400)
        errs.append(np.abs(lifted.value(t) - np.sin(t)).max())
    eoc = np.log(errs[0] / errs[2]) / np.log(4.0)
    assert 1.8 <= eoc <= 2.2


def test_dual_projection_needs_two_intervals():
    grid = uniform_grid(1.0, 1)
    w = PiecewiseConstantField(grid, np.ones((2, 1)))
    with pytest.raises(ValueError):
        dual_linear_projection(w, grid)


@pytest.mark.parametrize("nodes, message", [
    ([0.0], "at least two time nodes"),
    ([[0.0, 1.0]], "at least two time nodes"),
    ([0.1, 1.0], "start at 0"),
    ([0.0, 0.5, 0.5], "increase strictly"),
    ([0.0, np.nan, 1.0], "increase strictly"),
    ([0.0, 1.0, np.inf], "be finite"),
], ids=["one-node", "two-dim", "late-start", "repeated", "nan", "inf"])
def test_make_grid_rejects_bad_nodes(nodes, message):
    """A NaN node used to give NaN step sizes and an infinite one an
    infinite step, both failing only later in the step solver."""
    with pytest.raises(ValueError, match=message):
        make_grid(nodes)


@pytest.mark.parametrize("T, M", [(np.inf, 4), (np.nan, 4), (0.0, 4),
                                  (1.0, 0)])
def test_uniform_grid_rejects_bad_sizes(T, M):
    with pytest.raises(ValueError, match="need M >= 1 and finite T > 0"):
        uniform_grid(T, M)


@pytest.mark.parametrize("T, M", [(np.inf, 4), (np.nan, 4), (0.0, 4),
                                  (1.0, 0)])
def test_graded_grid_rejects_bad_sizes(T, M):
    """Checked up front: M = 0 would divide by zero and T = inf multiply
    0 by inf, each warning before make_grid saw the NaN nodes."""
    with pytest.raises(ValueError, match="need M >= 1 and finite T > 0"):
        graded_grid(T, M, 2.0)


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan])
def test_graded_grid_rejects_non_positive_exponent(gamma):
    with pytest.raises(ValueError, match="grading exponent must be positive"):
        graded_grid(1.0, 4, gamma)
