import dataclasses
from functools import partial

import numpy as np
import pytest

from helpers import skewed_example2
from parapt.problems import (example1, example2, find_crossings,
                             manufactured_smooth, self_test, sin_profile)


FACTORIES = [example1, example2, manufactured_smooth,
             pytest.param(partial(manufactured_smooth, q=2),
                          id="manufactured_smooth_q2")]


@pytest.mark.parametrize("factory", FACTORIES)
def test_exact_solutions_satisfy_their_equations(factory):
    """State and adjoint equation residuals, sampled over the space-time
    cylinder."""
    residuals = self_test(factory())
    assert max(residuals.values()) <= 1e-8


@pytest.mark.parametrize("scale", [{"dy_scale": 1.01}, {"dp_scale": 1.01}],
                         ids=["dy", "dp"])
def test_self_test_rejects_a_wrong_time_derivative(scale):
    """self_test differentiates y and p itself, so a load built from a y'
    or p' that is off by 1% fails it."""
    with pytest.raises(AssertionError, match="residuals too large"):
        self_test(skewed_example2(**scale))


def test_example_loads_and_targets_match_paper_formulas():
    """The derived load (first g0 term) and target of examples 1 and 2
    against the hand-written formulas of the source paper, relative to the
    formula's size over the samples."""
    def check(theta, formula, t):
        want = formula(t)
        np.testing.assert_allclose(theta(t), want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))

    a, T = -np.sqrt(5.0), 0.1
    E = lambda t: np.exp(a * np.pi**2 * t)
    cd = (a * a - 5.0) / (2.0 + a) * np.pi**2
    spec, t = example1(), np.linspace(0.0, T, 11)
    check(spec.g0[0].theta, lambda t: -np.pi**4 * E(t), t)
    check(spec.y_d[0].theta, lambda t: cd * E(t) + 2.0 * np.pi**2 * E(T), t)

    a, T = 2.0, 0.5
    om = 2.0 * np.pi * a / T
    spec, t = example2(), np.linspace(0.0, T, 11)
    check(spec.g0[0].theta, lambda t: 2.0 * np.pi * (
        -(a / T) * np.sin(om * t) + np.pi * np.cos(om * t)), t)
    check(spec.y_d[0].theta, lambda t: (1.0 - 2.0 * np.pi**2) * np.cos(om * t)
          - om * np.sin(om * t) + 2.0 * np.pi**2 * np.cos(2.0 * np.pi * a), t)


@pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
def test_problem_spec_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        dataclasses.replace(example2(), alpha=alpha)


def test_example1_setup():
    spec = example1()
    assert spec.T == 0.1
    assert spec.alpha == pytest.approx(np.pi ** -4)
    assert spec.uad.dim == 1 and len(spec.g) == 1
    np.testing.assert_allclose(spec.uad.lower, [-25.0])
    np.testing.assert_allclose(spec.uad.upper, [-1.0])
    # the upper bound becomes active on a single trailing interval
    assert len(spec.exact.u_breaks[0]) == 1
    assert 0.08 < spec.exact.u_breaks[0][0] < 0.09


def test_example1_control_is_clamped_pairing():
    spec = example1()
    t = np.linspace(0.0, spec.T, 200)
    raw = -spec.exact.p[0].theta(t) / (4.0 * spec.alpha)
    clamped = np.clip(raw, spec.uad.lower[0], spec.uad.upper[0])
    np.testing.assert_allclose(spec.exact.u_funcs[0](t), clamped, rtol=1e-12)


def test_example2_control_feasible_and_oscillating():
    spec = example2()
    assert spec.T == 0.5 and spec.alpha == 1.0
    t = np.linspace(0.0, spec.T, 2000)
    u = spec.exact.u_funcs[0](t)
    assert u.min() >= 0.2 - 1e-14 and u.max() <= 0.4 + 1e-14
    # two full periods crossing each bound twice per period
    assert len(spec.exact.u_breaks[0]) == 8


def test_example_initial_states_match_exact_state():
    for spec in (example1(), example2(), manufactured_smooth()):
        x, y = 0.3, 0.7
        from_terms = sum(term.theta(0.0) * term.profile(x, y)
                         for term in spec.exact.y)
        assert spec.y0(x, y) == pytest.approx(from_terms, rel=1e-12, abs=1e-14)


def test_manufactured_force_and_terminal_condition():
    """The derived load, adjoint right-hand side and target against the
    hand-written formulas for y = exp(-t), p = (T - t) exp(-t) on mode q."""
    for q in (1, 2):
        spec = manufactured_smooth(q=q)
        lam, T = 2.0 * q * q * np.pi ** 2, spec.T
        t = np.linspace(0.0, T, 11)
        e = np.exp(-t)
        assert len(spec.g0) == len(spec.exact.p_rhs) == len(spec.y_d) == 1
        np.testing.assert_allclose(spec.g0[0].theta(t), (lam - 1.0) * e,
                                   rtol=1e-12)
        np.testing.assert_allclose(spec.exact.p_rhs[0].theta(t),
                                   e * (1.0 + (1.0 + lam) * (T - t)),
                                   rtol=1e-12)
        np.testing.assert_allclose(spec.y_d[0].theta(t),
                                   -(1.0 + lam) * (T - t) * e,
                                   rtol=1e-12, atol=1e-12 * (1.0 + lam) * T)
        assert spec.exact.p[0].theta(T) == 0.0
        assert spec.uad.dim == 0 and spec.g == [] and spec.exact.u_funcs == []


def test_find_crossings_locates_level_sets():
    hits = find_crossings(lambda t: np.cos(2.0 * np.pi * t), -0.5, 0.5, 1.0)
    np.testing.assert_allclose(sorted(hits), [1 / 6, 1 / 3, 2 / 3, 5 / 6],
                               atol=1e-10)
    assert find_crossings(lambda t: np.zeros_like(t), -1.0, 1.0, 1.0).size == 0


def test_sin_profile_peaks_at_center():
    f = sin_profile(1, 1)
    assert f(0.5, 0.5) == pytest.approx(1.0)
    assert f(0.0, 0.3) == pytest.approx(0.0, abs=1e-15)
    g = sin_profile(2, 1)
    assert g(0.25, 0.5) == pytest.approx(1.0)


def test_self_test_needs_an_exact_solution():
    spec = dataclasses.replace(example1(), exact=None)
    with pytest.raises(ValueError, match="no exact solution"):
        self_test(spec)
