import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import trapezoid

import parapt.state
from helpers import (dense_state_oracle, element_assembly, element_mass,
                     element_stiffness, state_l2_stability_check)
from parapt.adjoint import solve_adjoint
from parapt.fem import build_mesh, interpolate, mass_matrix, stiffness_matrix
from parapt.problems import manufactured_smooth
from parapt.state import (NonFiniteSweepError, RhsTerm, StepMatrixCache,
                          discretize_terms, hat_moments, solve_state)
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


def kinds(record, kind):
    """The entries of a StepMatrixCache record of one kind."""
    return [entry for entry in record if entry[0] == kind]


def test_ulp_distinct_steps_share_one_factor(small_space):
    _, Mh, Kh, _, _ = small_space
    ks = uniform_grid(0.1, 160).k
    assert len(set(map(float, ks))) > 1       # linspace differences
    cache = StepMatrixCache(Mh, Kh)
    first = cache.get(ks[0])
    assert all(cache.get(k) is first for k in ks)
    assert len(kinds(cache.record, "factor")) == 1


def test_graded_sweep_holds_one_factor():
    """Every step size of a graded grid is solved once in a row, so both
    sweeps solve by PCG and build no factor, also at the turn from the
    forward sweep's k_M to the backward sweep's."""
    mesh = build_mesh(9)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = graded_grid(1.0, 16, 2)
    term = RhsTerm(np.ones(Mh.shape[0]), lambda t: np.cos(3.0 * t))
    cache = StepMatrixCache(Mh, Kh)
    solve_state(Mh, Kh, grid, [term], np.zeros(Mh.shape[0]), cache=cache)
    solve_adjoint(Mh, Kh, grid, terms=[term], cache=cache)
    assert {kind for kind, _, _ in cache.record} == {"pcg"}


def test_uniform_sweeps_build_one_factor():
    """The first step of a uniform grid repeats in the next one, so it is
    factored, and that factor serves every step of both sweeps."""
    mesh = build_mesh(9)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = uniform_grid(1.0, 16)
    term = RhsTerm(np.ones(Mh.shape[0]), lambda t: np.cos(3.0 * t))
    cache = StepMatrixCache(Mh, Kh)
    solve_state(Mh, Kh, grid, [term], np.zeros(Mh.shape[0]), cache=cache)
    solve_adjoint(Mh, Kh, grid, terms=[term], cache=cache)
    assert len(kinds(cache.record, "factor")) == 1


@pytest.mark.parametrize("nh", [3, 4, 5, 17, 65, 129])
def test_pcg_step_solve_matches_band(nh, rng):
    """A step size solved once goes through PCG, builds no factor, and
    agrees with the banded solve to 1e-12 relative.  The preconditioner
    keeps it to at most 25 iterations from a random guess; plain CG takes
    hundreds at nh=65 and k=2."""
    mesh = build_mesh(nh)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    n = Mh.shape[0]
    for k in (0.0, 1e-6, 0.013, 1.0 / 6.0, 2.0):
        cache = StepMatrixCache(Mh, Kh)
        rhs, x0 = rng.normal(size=n), rng.normal(size=n)
        pcg = cache.solve(k, rhs.copy(), x0, repeats=False)
        band = cache.solve(k, rhs.copy(), x0, repeats=True)
        assert [kind for kind, _, _ in cache.record] == ["pcg", "factor",
                                                         "band"], k
        assert (np.linalg.norm(pcg - band)
                <= 1e-12 * np.linalg.norm(band)), k
        assert cache.record[0][2] <= 25, k


@pytest.mark.parametrize("nh", [3, 5, 17, 65])
def test_product_equals_sum_of_sparse_products(nh, rng):
    """M x + s K x is the two sparse products' sum to the last bit, in the
    forms the sweeps and PCG use; at s = 0 it is M x even where K x is
    NaN, so a K x multiplied by zero is never formed."""
    mesh = build_mesh(nh)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    cache = StepMatrixCache(Mh, Kh)
    x = rng.normal(size=Mh.shape[0])
    for k in (0.0, 1e-6, 0.013, 1.0 / 6.0, 2.0):
        assert np.array_equal(cache.product(x, -0.5 * k),
                              Mh @ x - 0.5 * k * (Kh @ x)), k
        assert np.array_equal(cache.product(x, 0.5 * k),
                              Mh @ x + 0.5 * k * (Kh @ x)), k
    K_nan = Kh.copy()
    K_nan.data[:] = np.nan
    assert np.array_equal(StepMatrixCache(Mh, K_nan).product(x, 0.0), Mh @ x)


def test_pcg_non_finite_load_fails_fast_on_graded_grid():
    """A NaN load on the fifth graded interval spoils the hat loads of t_4
    and t_5, so step 5 of the state sweep is the first bad one; its
    right-hand side gives NaN without a CG call."""
    mesh = build_mesh(9)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = graded_grid(1.0, 8, 2)
    assert 0.25 == grid.t[4] < 0.3 < 0.35 < grid.t[5]
    term = RhsTerm(np.ones(Mh.shape[0]),
                   lambda t: np.where((t > 0.3) & (t < 0.35), np.nan, 1.0))
    cache = StepMatrixCache(Mh, Kh)
    with pytest.raises(NonFiniteSweepError) as info:
        solve_state(Mh, Kh, grid, [term], np.zeros(Mh.shape[0]), cache=cache)
    assert info.value.step == 5
    assert [(kind, n is None) for kind, _, n in cache.record] == (
        [("pcg", False)] * 4 + [("pcg", True)] * 4)


def test_pcg_gives_up_after_100_iterations(monkeypatch):
    """Without its preconditioner CG needs hundreds of iterations on the
    larger graded steps at nh=65; the step solve stops at 100 and raises
    LinAlgError."""
    real = parapt.state.cg
    monkeypatch.setattr(parapt.state, "cg",
                        lambda A, b, **kw: real(A, b, **{**kw, "M": None}))
    mesh = build_mesh(65)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = graded_grid(1.0, 8, 2)
    term = RhsTerm(np.ones(Mh.shape[0]), lambda t: np.cos(3.0 * t))
    cache = StepMatrixCache(Mh, Kh)
    with pytest.raises(np.linalg.LinAlgError, match="info=100"):
        solve_state(Mh, Kh, grid, [term], np.zeros(Mh.shape[0]), cache=cache)
    kind, _, n = cache.record[-1]
    assert (kind, n) == ("pcg", 100)


def graded_manufactured_sweeps(nh, M):
    """State and adjoint sweeps of the manufactured problem on a graded
    grid of M intervals (exponent 2) at mesh size nh, through one cache;
    returns the grid and the cache's record."""
    prob = manufactured_smooth()
    mesh = build_mesh(nh)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = graded_grid(prob.T, M, 2)
    cache = StepMatrixCache(Mh, Kh)
    solve_state(Mh, Kh, grid, discretize_terms(mesh, prob.g0),
                interpolate(mesh, prob.y0), cache=cache)
    solve_adjoint(Mh, Kh, grid, cache=cache,
                  terms=discretize_terms(mesh, prob.exact.p_rhs))
    return grid, cache.record


def test_graded_manufactured_sweeps_keep_their_cg_iterations():
    """Turning CG into the DST-I basis keeps its Krylov iteration: the
    state and adjoint sweeps of the manufactured problem on a 32-interval
    graded grid at nh=65 take 306 iterations in all, at most 10 a solve."""
    grid, record = graded_manufactured_sweeps(65, 32)
    its = [n for _, _, n in kinds(record, "pcg")]
    assert len(its) == len(record) == 2 * grid.M + 1  # and the terminal solve
    assert sum(its) <= 321                            # 306 plus 5%
    assert max(its) <= 10


def test_pcg_guard_passes_correct_solves_on_fine_mesh():
    """Rounding x costs ||M + (k/2) K|| ||x|| eps of residual, and ||rhs||
    is only about h^2 ||x||: on the 8-interval graded manufactured state
    sweep at nh=129 a correct solve reaches 1.1e-12 relative to rhs.  The
    guard bounds the backward error, so both sweeps pass."""
    grid, record = graded_manufactured_sweeps(129, 8)
    assert [(kind, n is None) for kind, _, n in record] == (
        [("pcg", False)] * (2 * grid.M + 1))


@pytest.mark.parametrize("mass", [lambda M, K: 2 * M, lambda M, K: K],
                         ids=["2M", "K"])
def test_pcg_residual_guard_rejects_other_matrices(mass, rng):
    """The PCG operator is the mesh's M + (k/2) K in the DST-I basis, not
    the cache's matrices, so a cache on (2 M, K) or (K, K) must not return
    the solution of the mesh's system: one true residual through the
    cache's own M and K raises.  The band solves with those matrices."""
    mesh = build_mesh(17)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    A = mass(Mh, Kh)
    for k in (0.0, 0.013, 2.0):
        cache = StepMatrixCache(A, Kh)
        rhs, x0 = rng.normal(size=cache.n), rng.normal(size=cache.n)
        with pytest.raises(np.linalg.LinAlgError, match="residual"):
            cache.solve(k, rhs.copy(), x0, repeats=False)
        x = cache.solve(k, rhs.copy(), x0, repeats=True)
        assert (np.linalg.norm(rhs - (A + 0.5 * k * Kh) @ x)
                <= 1e-12 * np.linalg.norm(rhs)), k


def test_pcg_on_non_square_grid_raises():
    """n = 5 is no m x m grid: PCG raises LinAlgError naming n before any
    reshape or CG call; the band still solves."""
    cache = StepMatrixCache(sp.identity(5, format="csr"),
                            sp.identity(5, format="csr"))
    rhs = np.arange(5.0)
    with pytest.raises(np.linalg.LinAlgError, match="n=5"):
        cache.solve(0.5, rhs.copy(), np.zeros(5), repeats=False)
    assert cache.record == []
    np.testing.assert_allclose(
        cache.solve(0.5, rhs.copy(), np.zeros(5), repeats=True), rhs / 1.25,
        rtol=1e-15)


@pytest.mark.parametrize("k", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
def test_bad_step_size_raises_before_solving(k):
    """A negative or non-finite step size raises LinAlgError on both paths
    before any arithmetic, so no division by a vanishing symbol warns."""
    mesh = build_mesh(9)
    cache = StepMatrixCache(mass_matrix(mesh), stiffness_matrix(mesh))
    rhs = np.ones(cache.n)
    for repeats in (False, True):
        with np.errstate(all="raise"), pytest.raises(
                np.linalg.LinAlgError, match="finite and non-negative"):
            cache.solve(k, rhs, np.zeros(cache.n), repeats)
    assert cache.record == []


@pytest.mark.parametrize("nh", [3, 4, 5, 17, 65])
def test_step_factor_equals_factor_of_sparse_band(nh, rng):
    """The factor's band holds the lower Cholesky factor L of M + (k/2) K:
    entry for entry to 1e-13 relative against a dense factorization up to
    nh = 17, and through L L^T x = (M + (k/2) K) x at nh = 65.  nh = 4 is
    the smallest mesh with all four offsets 0, 1, m and m+1; the
    element-assembled K stores explicit zeros on the SW diagonal."""
    mesh = build_mesh(nh)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    Me = element_assembly(mesh, element_mass)
    Ke = element_assembly(mesh, element_stiffness)
    n = Mh.shape[0]
    x = rng.normal(size=n)
    for A, B in ((Mh, Kh), (Me, Ke), (Kh, Kh), (Ke, Ke)):
        for k in (0.0, 1e-6, 0.013, 1.0 / 6.0, 2.0):
            S = A + 0.5 * k * B
            band = StepMatrixCache(A, B).get(k)
            L = sp.diags([row[:n - d] for d, row in enumerate(band)],
                         -np.arange(len(band)), shape=(n, n))
            if nh <= 17:
                want = scipy.linalg.cholesky(S.toarray(), lower=True)
                assert (np.abs(L.toarray() - want).max()
                        <= 1e-13 * np.abs(want).max()), k
            else:
                assert (np.linalg.norm(L @ (L.T @ x) - S @ x)
                        <= 1e-13 * np.linalg.norm(S @ x)), k


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
    """The terminal solve is the k = 0 step solve; NaN from it is step
    M+1."""
    _, Mh, Kh, _, _ = small_space
    real = StepMatrixCache.solve
    monkeypatch.setattr(
        StepMatrixCache, "solve", lambda self, k, rhs, x0, repeats:
        np.full_like(rhs, np.nan) if k == 0 else real(self, k, rhs, x0,
                                                      repeats))
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
