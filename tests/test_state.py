import weakref

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import trapezoid
from scipy.linalg import cholesky_banded

import parapt.state
from helpers import (dense_state_oracle, element_assembly, element_mass,
                     element_stiffness, reference_band_offsets,
                     reference_step_band)
from parapt.adjoint import solve_adjoint
from parapt.fem import build_mesh, mass_matrix, stiffness_matrix
from parapt.state import (NonFiniteSweepError, RhsTerm, StepMatrixCache,
                          hat_moments, solve_state, state_l2_stability_check)
from parapt.timegrid import graded_grid, make_grid, uniform_grid


@pytest.fixture(scope="module")
def small_space():
    mesh = build_mesh(4)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    return mesh, Mh, Kh, Mh.toarray(), Kh.toarray()


def test_zero_data_gives_zero_field(small_space):
    _, Mh, Kh, _, _ = small_space
    grid = uniform_grid(1.0, 3)
    y = solve_state(Mh, Kh, grid, [], np.zeros(Mh.shape[0]))
    assert np.all(y.values == 0.0)


@pytest.mark.parametrize("M", [1, 2, 4])
def test_matches_dense_block_solve(small_space, rng, M):
    """Sweep solution equals the one-shot solve of the full space-time
    system assembled from the bilinear form."""
    _, Mh, Kh, Md, Kd = small_space
    n = Mh.shape[0]
    grid = make_grid(np.concatenate([[0.0],
                                     np.cumsum(rng.uniform(0.05, 0.2, M))]))
    c = rng.normal(size=3)
    theta = lambda t, c=c: c[0] + c[1] * t + c[2] * t ** 2
    g, y0 = rng.normal(size=n), rng.normal(size=n)
    y = solve_state(Mh, Kh, grid, [RhsTerm(g, theta)], y0)
    ref = dense_state_oracle(Md, Kd, grid, theta, g, y0)
    assert np.abs(y.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_reduces_to_scalar_theta_scheme(small_space):
    """Starting from a discrete Laplacian eigenvector, the sweep must
    reproduce the scalar damped-first-step / trapezoidal recurrence."""
    _, Mh, Kh, Md, Kd = small_space
    lams, vecs = scipy.linalg.eigh(Kd, Md)
    lam, v = lams[0], vecs[:, 0]
    grid = make_grid([0.0, 0.2, 0.5, 0.6])
    y = solve_state(Mh, Kh, grid, [], v)
    k, lam_h = grid.k, 0.5 * lam
    coeff = [1.0 / (1.0 + lam_h * k[0])]
    for m in range(1, grid.M):
        coeff.append(coeff[-1] * (1.0 - lam_h * k[m - 1])
                     / (1.0 + lam_h * k[m]))
    coeff.append(coeff[-1] * (1.0 - lam_h * k[-1]))  # separate value at T
    np.testing.assert_allclose(y.values, np.outer(coeff, v), rtol=1e-11,
                               atol=1e-13)


def test_hat_integrals_of_clamped_ramp():
    # single interval [0, 1], integrand min(max(t, 1/4), 3/4):
    # against the decreasing hat 1-t the integral is 37/192, against t it
    # is 1/2 - 37/192 = 59/192
    grid = uniform_grid(1.0, 1)
    ramp = lambda t: np.clip(t, 0.25, 0.75)
    term = RhsTerm(np.array([1.0]), ramp, breaks=np.array([0.25, 0.75]))
    mom = hat_moments(term, grid)
    assert mom.shape == (1, 2)
    assert mom[0, 0] == pytest.approx(37.0 / 192.0, rel=1e-14)
    assert mom[0, 1] == pytest.approx(59.0 / 192.0, rel=1e-14)


def test_hat_integrals_match_brute_force(rng):
    grid = make_grid([0.0, 0.35, 0.8, 1.0])
    theta = lambda t: np.exp(-t) * np.cos(4.0 * t)
    term = RhsTerm(np.array([1.0]), theta)
    mom = hat_moments(term, grid)
    for m in range(grid.M):
        t0, t1 = grid.t[m], grid.t[m + 1]
        t = np.linspace(t0, t1, 700_001)
        falling = trapezoid(theta(t) * (t1 - t) / (t1 - t0), t)
        rising = trapezoid(theta(t) * (t - t0) / (t1 - t0), t)
        assert mom[m, 0] == pytest.approx(falling, abs=1e-10)
        assert mom[m, 1] == pytest.approx(rising, abs=1e-10)


def test_interval_integrals_closed_forms():
    grid = make_grid([0.0, 0.4, 1.0])
    one = RhsTerm(np.array([1.0]), lambda t: np.ones_like(t))
    ramp = RhsTerm(np.array([1.0]), lambda t: t)
    np.testing.assert_allclose(hat_moments(one, grid),
                               np.column_stack([grid.k, grid.k]) / 2)
    np.testing.assert_allclose(hat_moments(one, grid).sum(axis=1), grid.k)
    np.testing.assert_allclose(hat_moments(ramp, grid).sum(axis=1),
                               [0.4 ** 2 / 2, (1.0 - 0.4 ** 2) / 2],
                               rtol=1e-14)


@pytest.fixture
def count_factors(monkeypatch):
    """Count the Cholesky factorizations and the largest number of factor
    arrays alive at once."""
    stats = {"built": 0, "peak_live": 0}
    refs = []

    def counted(*args, **kwargs):
        factor = cholesky_banded(*args, **kwargs)
        stats["built"] += 1
        refs.append(weakref.ref(factor))
        live = sum(r() is not None for r in refs)
        stats["peak_live"] = max(stats["peak_live"], live)
        return factor

    monkeypatch.setattr(parapt.state, "cholesky_banded", counted)
    return stats


def test_ulp_distinct_steps_share_one_factor(small_space, count_factors):
    _, Mh, Kh, _, _ = small_space
    ks = uniform_grid(0.1, 160).k
    assert len(set(map(float, ks))) > 1       # linspace differences
    cache = StepMatrixCache(Mh, Kh)
    first = cache.get(ks[0])
    assert all(cache.get(k) is first for k in ks)
    assert count_factors["built"] == 1


def test_graded_sweep_holds_one_factor(count_factors):
    mesh = build_mesh(9)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = graded_grid(1.0, 16, 2)
    term = RhsTerm(np.ones(Mh.shape[0]), lambda t: np.cos(3.0 * t))
    cache = StepMatrixCache(Mh, Kh)
    y = solve_state(Mh, Kh, grid, [term], np.zeros(Mh.shape[0]), cache=cache)
    solve_adjoint(Mh, Kh, grid, pc_part=y, cache=cache)
    # forward k_1..k_M, backward k_M (still live) down to k_1
    assert count_factors["built"] == 2 * grid.M - 1
    assert count_factors["peak_live"] == 1


@pytest.mark.parametrize("nh", [3, 5, 17, 65])
def test_step_factor_equals_factor_of_sparse_band(nh):
    """The band written from the stored diagonals is the sparse sum's band
    entry for entry, so the factors agree to the last bit."""
    mesh = build_mesh(nh)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    for k in (0.0, 1e-6, 0.013, 1.0 / 6.0, 2.0):
        want = cholesky_banded(reference_step_band(Mh, Kh, k), lower=True,
                               check_finite=False)
        assert np.array_equal(StepMatrixCache(Mh, Kh).get(k), want), k


@pytest.mark.parametrize("nh", [3, 4, 17, 65])
def test_band_offsets_match_sparse_construction(nh):
    """Offsets read from the CSR structure equal those of the sparse lower
    triangle of |M| + |K|, also for element-assembled matrices, whose K
    stores explicit zeros on the SW diagonal (offset n + 1)."""
    mesh = build_mesh(nh)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    Me = element_assembly(mesh, element_mass)
    Ke = element_assembly(mesh, element_stiffness)
    for A, B in ((Mh, Kh), (Me, Ke), (Kh, Kh), (Ke, Ke)):
        assert np.array_equal(StepMatrixCache(A, B)._offsets,
                              reference_band_offsets(A, B))


def test_step_matrix_not_positive_definite_raises():
    mesh = build_mesh(17)
    cache = StepMatrixCache(mass_matrix(mesh), stiffness_matrix(mesh))
    with pytest.raises(np.linalg.LinAlgError):
        cache.get(-1.0)


def test_non_finite_initial_value_fails_fast(small_space):
    _, Mh, Kh, _, _ = small_space
    y0 = np.zeros(Mh.shape[0])
    y0[2] = np.nan
    with pytest.raises(NonFiniteSweepError, match="step 1 of") as info:
        solve_state(Mh, Kh, uniform_grid(1.0, 4), [], y0)
    assert info.value.step == 1


def test_non_finite_load_names_first_bad_step(small_space):
    """A load that is NaN on the third of four intervals spoils the hat
    load of t_2, so the third interval value is the first bad one; the
    backward sweep meets that interval second."""
    _, Mh, Kh, _, _ = small_space
    grid = uniform_grid(1.0, 4)
    term = RhsTerm(np.ones(Mh.shape[0]),
                   lambda t: np.where((t > 0.5) & (t < 0.75), np.nan, 1.0))
    with pytest.raises(NonFiniteSweepError) as info:
        solve_state(Mh, Kh, grid, [term], np.zeros(Mh.shape[0]))
    assert info.value.step == 3
    with pytest.raises(NonFiniteSweepError) as info:
        solve_adjoint(Mh, Kh, grid, terms=[term])
    assert info.value.step == 2


def test_non_finite_terminal_value_fails_fast(small_space, monkeypatch):
    _, Mh, Kh, _, _ = small_space
    monkeypatch.setattr(parapt.state, "_mass_solve",
                        lambda M_h, rhs, x0: np.full_like(rhs, np.nan))
    grid = uniform_grid(1.0, 4)
    with pytest.raises(NonFiniteSweepError) as info:
        solve_state(Mh, Kh, grid, [], np.ones(Mh.shape[0]))
    assert info.value.step == grid.M + 1


def test_step_residuals_against_assembled_matrices(rng):
    """Without load every step of the sweep is one solve with M + k/2 K
    (and the last a mass solve); each holds to 1e-12 in relative
    residual."""
    mesh = build_mesh(9)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = graded_grid(0.5, 12, 1.5)
    y0 = rng.normal(size=Mh.shape[0])
    a = solve_state(Mh, Kh, grid, [], y0).values
    rhs = [Mh @ y0] + [Mh @ a[m] - 0.5 * grid.k[m] * (Kh @ a[m])
                       for m in range(grid.M)]
    lhs = [Mh + 0.5 * k * Kh for k in grid.k] + [Mh]
    for m in range(grid.M + 1):
        res = np.linalg.norm(lhs[m] @ a[m] - rhs[m])
        assert res <= 1e-12 * np.linalg.norm(rhs[m]), m


def test_stability_ratio_bounded_in_M(small_space):
    _, Mh, Kh, _, _ = small_space
    n = Mh.shape[0]
    g = np.ones(n)
    y0 = np.linspace(0.3, 1.0, n)
    term = RhsTerm(g, lambda t: np.cos(3.0 * t))
    ratios = []
    for M in (4, 16, 64, 128):
        grid = uniform_grid(1.0, M)
        y = solve_state(Mh, Kh, grid, [term], y0)
        ratios.append(state_l2_stability_check(y, [term], y0, Mh, grid))
    assert max(ratios) <= 1.0  # heat-equation energy bound, constant 1 here
    assert max(ratios) / min(ratios) <= 1.05
