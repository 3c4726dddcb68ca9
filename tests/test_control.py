import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.optimize import brentq

from helpers import apply_B_adjoint, total_variation
from parapt.control import (INACTIVE, LOWER, UPPER, AdmissibleSet,
                            clamp_control, constant_control, control_norms,
                            control_to_rhs_terms)
from parapt.fem import build_mesh, interpolate, mass_matrix
from parapt.problems import example1
from parapt.timegrid import PiecewiseLinearField, make_grid, uniform_grid


def box(lo, hi):
    return AdmissibleSet(np.array([lo]), np.array([hi]))


def test_clamp_keeps_interior_lines():
    times = np.linspace(0.0, 1.0, 5)
    vals = 0.1 + 0.3 * times
    u = clamp_control(times, vals[None, :], box(0.0, 1.0))
    np.testing.assert_allclose(u.breaks[0], times)
    np.testing.assert_allclose(u.vals[0], vals)
    assert np.all(u.tags[0] == INACTIVE)


def test_clamp_ramp_hits_both_bounds():
    times = np.array([0.0, 1.0])
    u = clamp_control(times, np.array([[0.0, 1.0]]), box(0.25, 0.75))
    np.testing.assert_allclose(u.breaks[0], [0.0, 0.25, 0.75, 1.0])
    np.testing.assert_allclose(u.vals[0], [0.25, 0.25, 0.75, 0.75])
    np.testing.assert_array_equal(u.tags[0], [LOWER, INACTIVE, UPPER])


def test_clamp_crossings_converge_to_analytic_switch_point():
    """Nodal sampling of the benchmark's unclamped control must place the
    clamp breakpoint second-order close to the true crossing time."""
    spec = example1()
    arg = lambda t: -spec.exact.p[0].theta(t) / (4.0 * spec.alpha)
    hi = spec.uad.upper[0]
    t_star = brentq(lambda t: arg(t) - hi, 0.05, 0.099)
    errs = []
    for M in (16, 32, 64):
        times = np.linspace(0.0, spec.T, M + 1)
        u = clamp_control(times, arg(times)[None, :], spec.uad)
        crossings = [b for b in u.breaks[0]
                     if 1e-12 < b < spec.T - 1e-12 and b not in times]
        assert len(crossings) == 1
        errs.append(abs(crossings[0] - t_star))
    assert errs[0] / errs[2] >= 10.0  # second order leaves a factor 16


def test_clamp_active_plateaus_sit_exactly_on_bounds(rng):
    times = np.linspace(0.0, 2.0, 9)
    for _ in range(20):
        vals = rng.normal(scale=2.0, size=(1, 9))
        u = clamp_control(times, vals, box(-0.5, 0.8))
        clamped = clamp_control(np.asarray(u.breaks[0]),
                                np.asarray(u.vals[0])[None, :], box(-0.5, 0.8))
        # idempotent: same geometry, same values
        np.testing.assert_allclose(clamped.breaks[0], u.breaks[0], atol=1e-14)
        np.testing.assert_allclose(clamped.vals[0], u.vals[0], atol=1e-14)
        assert np.all(u.vals[0] >= -0.5) and np.all(u.vals[0] <= 0.8)
        for j, tag in enumerate(u.tags[0]):
            if tag == LOWER:
                assert u.vals[0][j] == -0.5 and u.vals[0][j + 1] == -0.5
            if tag == UPPER:
                assert u.vals[0][j] == 0.8 and u.vals[0][j + 1] == 0.8


def test_clamp_does_not_increase_total_variation(rng):
    times = np.linspace(0.0, 1.0, 12)
    for _ in range(20):
        vals = rng.normal(size=(1, 12))
        u = clamp_control(times, vals, box(-0.4, 0.3))
        tv_raw = np.abs(np.diff(np.clip(vals[0], -0.4, 0.3))).sum()
        tv = total_variation(u.vals[0])
        assert tv <= np.abs(np.diff(vals[0])).sum() + 1e-12
        assert tv == pytest.approx(tv_raw, abs=1e-12)


def test_constant_control_within_box():
    grid = uniform_grid(1.0, 4)
    u = constant_control(grid, np.array([5.0, -5.0]),
                         AdmissibleSet(np.array([0.0, 0.0]),
                                       np.array([1.0, 1.0])))
    assert u.value(0, 0.5) == 1.0
    assert u.value(1, 0.5) == 0.0


def test_apply_B_adjoint_extracts_nodal_pairings(rng):
    mesh = build_mesh(9)
    Mh = mass_matrix(mesh)
    g = interpolate(mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    grid = uniform_grid(1.0, 3)
    betas = rng.normal(size=(4, Mh.shape[0]))
    p = PiecewiseLinearField(grid, betas)
    w = apply_B_adjoint(p, [g], Mh)
    assert w.shape == (1, 4)
    expect = [float(g @ (Mh @ b)) for b in betas]
    np.testing.assert_allclose(w[0], expect, rtol=1e-13)


def test_first_mode_pairing_value():
    # int g1^2 over the unit square is 1/4
    mesh = build_mesh(33)
    Mh = mass_matrix(mesh)
    g = interpolate(mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    p = PiecewiseLinearField(make_grid([0.0, 1.0]), np.vstack([g, g]))
    w = apply_B_adjoint(p, [g], Mh)
    assert w[0][0] == pytest.approx(0.25, abs=2e-3)


def test_control_to_rhs_terms_round_trip():
    times = np.array([0.0, 1.0])
    u = clamp_control(times, np.array([[0.0, 1.0]]), box(0.25, 0.75))
    g = np.array([2.0])
    (term,) = control_to_rhs_terms(u, [g])
    np.testing.assert_allclose(term.spatial, g)
    t = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(term.temporal(t), np.clip(t, 0.25, 0.75))
    assert 0.25 in term.breaks and 0.75 in term.breaks


def test_control_norms_zero_and_constant_offset():
    T = 0.7
    times = np.array([0.0, T])
    uad = box(-10.0, 10.0)
    u = clamp_control(times, np.array([[1.0, 1.0]]), uad)
    v = clamp_control(times, np.array([[3.5, 3.5]]), uad)
    zero = control_norms(u, u, T)
    assert zero["L1"] == zero["L2"] == zero["Linf"] == 0.0
    d = control_norms(u, v, T)
    assert d["L1"] == pytest.approx(2.5 * T, rel=1e-12)
    assert d["L2"] == pytest.approx(2.5 * np.sqrt(T), rel=1e-12)
    assert d["Linf"] == pytest.approx(2.5, rel=1e-12)


def test_control_norms_against_dense_sampling(rng):
    T = 1.0
    times = np.linspace(0.0, T, 6)
    uad = box(-0.6, 0.5)
    u = clamp_control(times, rng.normal(size=(1, 6)), uad)
    v = clamp_control(times, rng.normal(size=(1, 6)), uad)
    norms = control_norms(u, v, T)
    t = np.linspace(0.0, T, 1_000_001)
    diff = np.abs(u.value(0, t) - v.value(0, t))
    assert norms["L1"] == pytest.approx(trapezoid(diff, t), abs=1e-9)
    assert norms["L2"] == pytest.approx(np.sqrt(trapezoid(diff ** 2, t)),
                                        abs=1e-9)
    assert norms["Linf"] == pytest.approx(diff.max(), abs=1e-6)


def test_squared_l2_closed_form():
    times = np.array([0.0, 1.0])
    u = clamp_control(times, np.array([[0.0, 1.0]]), box(-5.0, 5.0))
    assert u.squared_l2() == pytest.approx(1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("lower, upper, message", [
    (np.nan, 1.0, "NaN"),
    (0.0, [np.nan], "NaN"),
    ([0.0, 0.0], [1.0], "equal length"),
    (1.0, 0.0, "exceeds"),
], ids=["nan-lower", "nan-upper", "unequal-length", "crossed"])
def test_admissible_set_rejects_bad_bounds(lower, upper, message):
    """A NaN bound used to be accepted and turn every clamped value into
    NaN."""
    with pytest.raises(ValueError, match=message):
        AdmissibleSet(lower, upper)


@pytest.mark.parametrize("hi", [1e16, np.inf])
def test_clamp_keeps_crossings_with_a_far_bound(hi):
    """The hat -1, 2, -1 on nodes 0, 1/2, 1 crosses 0 at 1/6 and 5/6.  The
    flat-piece cut-off scales with the data alone, so an upper bound far
    above it, or none, does not turn both pieces flat and lose those
    crossings."""
    u = clamp_control(np.array([0.0, 0.5, 1.0]),
                      np.array([[-1.0, 2.0, -1.0]]), box(0.0, hi))
    np.testing.assert_allclose(u.breaks[0], [0.0, 1 / 6, 0.5, 5 / 6, 1.0],
                               rtol=1e-15)
    np.testing.assert_array_equal(u.vals[0], [0.0, 0.0, 2.0, 0.0, 0.0])
    np.testing.assert_array_equal(u.tags[0],
                                  [LOWER, INACTIVE, INACTIVE, LOWER])
    assert u.value(0, 1 / 6) == 0.0
    assert u.value(0, 1 / 3) == pytest.approx(1.0, rel=1e-14)


def test_control_norms_reject_different_component_counts():
    times = np.array([0.0, 1.0])
    one = clamp_control(times, np.zeros((1, 2)), box(0.0, 1.0))
    two = clamp_control(times, np.zeros((2, 2)),
                        AdmissibleSet(np.zeros(2), np.ones(2)))
    with pytest.raises(ValueError, match="different component counts"):
        control_norms(one, two, 1.0)
