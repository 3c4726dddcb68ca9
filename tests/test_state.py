import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import trapezoid
from scipy.linalg.lapack import dpbtrs

import parapt.state
from helpers import (dense_state_oracle, element_assembly, element_mass,
                     element_stiffness, state_l2_stability_check)
from parapt.adjoint import solve_adjoint
from parapt.fem import build_mesh, interpolate, mass_matrix, stiffness_matrix
from parapt.problems import manufactured_smooth
from parapt.state import (NonFiniteSweepError, RhsTerm, StepMatrixCache,
                          _one_step_size, cn_march, discretize_terms,
                          hat_moments, solve_state)
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


@pytest.mark.parametrize("T", [0.1, 0.5, 1.0])
def test_uniform_grids_have_one_step_size_and_graded_ones_do_not(T):
    """The linspace differences of every uniform grid up to M = 8192 are
    one step size, also where rounding to 12 digits splits them, as at
    T = 0.1, M = 198; no grid graded by t^2 is."""
    assert all(_one_step_size(uniform_grid(T, M).k) for M in range(1, 8193))
    assert not any(_one_step_size(graded_grid(T, M, 2).k)
                   for M in range(2, 2000))


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
    """A uniform grid's march factors its one step size, and that factor
    serves every step of both sweeps."""
    mesh = build_mesh(9)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = uniform_grid(1.0, 16)
    term = RhsTerm(np.ones(Mh.shape[0]), lambda t: np.cos(3.0 * t))
    cache = StepMatrixCache(Mh, Kh)
    solve_state(Mh, Kh, grid, [term], np.zeros(Mh.shape[0]), cache=cache)
    solve_adjoint(Mh, Kh, grid, terms=[term], cache=cache)
    assert len(kinds(cache.record, "factor")) == 1


def test_uniform_march_factors_before_its_first_step():
    """The march, not a solve, picks the band: a uniform grid's factor
    entry comes first in the record, before its first banded solve, and
    every step of the march is banded."""
    mesh = build_mesh(9)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = uniform_grid(1.0, 8)
    cache = StepMatrixCache(Mh, Kh)
    solve_state(Mh, Kh, grid, [], np.ones(Mh.shape[0]), cache=cache)
    assert [kind for kind, _, _ in cache.record] == (
        ["factor"] + ["band"] * grid.M + ["pcg"])
    assert cache.record[0][1] == cache.record[1][1] == grid.k[0]


def test_run_of_equal_steps_among_distinct_ones_solves_by_pcg():
    """A march factors only when all its steps share one step size: three
    equal steps followed by distinct ones build no factor, and every step
    of both sweeps is a PCG solve."""
    mesh = build_mesh(9)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = make_grid([0.0, 0.1, 0.2, 0.3, 0.45, 0.65, 1.0])
    term = RhsTerm(np.ones(Mh.shape[0]), lambda t: np.cos(3.0 * t))
    cache = StepMatrixCache(Mh, Kh)
    solve_state(Mh, Kh, grid, [term], np.zeros(Mh.shape[0]), cache=cache)
    solve_adjoint(Mh, Kh, grid, terms=[term], cache=cache)
    assert [kind for kind, _, _ in cache.record] == ["pcg"] * (2 * grid.M + 1)


def uniform_sweeps(nh):
    """State and adjoint of a 16-step uniform sweep at mesh size nh
    through one cache; returns both fields' values and the cache's
    record."""
    mesh = build_mesh(nh)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = uniform_grid(0.1, 16)
    term = RhsTerm(interpolate(mesh, lambda x, y: x * (1.0 - y)),
                   lambda t: np.cos(30.0 * t))
    cache = StepMatrixCache(Mh, Kh)
    y = solve_state(Mh, Kh, grid, [term], np.zeros(Mh.shape[0]), cache=cache)
    p = solve_adjoint(Mh, Kh, grid, terms=[term], cache=cache)
    return y.values, p.values, cache.record


@pytest.mark.parametrize("nh, factors, other", [(65, 1, 0), (129, 0, 10**9)])
def test_uniform_grid_bands_only_below_m_127(nh, factors, other,
                                              monkeypatch):
    """A uniform grid's repeating step size is factored at nh=65 (m=63)
    and solved by PCG at nh=129 (m=127), from where the band costs more
    than it saves.  States and adjoints agree with the other path's, taken
    by moving the bound, to 1e-12 relative."""
    y, p, record = uniform_sweeps(nh)
    assert len(kinds(record, "factor")) == factors
    assert len(kinds(record, "band")) == (32 if factors else 0)
    monkeypatch.setattr(parapt.state, "_BAND_BELOW_M", other)
    y_other, p_other, record = uniform_sweeps(nh)
    assert len(kinds(record, "factor")) == 1 - factors
    for a, b in ((y, y_other), (p, p_other)):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def sine_matrix(m):
    """The orthonormal m x m DST-I matrix, dense."""
    j = np.arange(1, m + 1)
    return np.sqrt(2.0 / (m + 1)) * np.sin(
        np.outer(j, j) % (2 * m + 2) * np.pi / (m + 1))


def from_blocks(Y, m):
    """The m x m matrix of parity blocks Y (odd modes first, each block
    padded to (m + 1) // 2), in mode order."""
    h = m // 2
    order = np.r_[0:m:2, 1:m:2]
    out = np.empty((m, m))
    out[np.ix_(order, order)] = np.block([[Y[0, 0], Y[0, 1][:, :h]],
                                         [Y[1, 0][:h], Y[1, 1][:h, :h]]])
    return out


def padding(Y, m):
    """The padded entries of parity blocks Y: the even modes' last row and
    column when m is odd, nothing when m is even."""
    h = m // 2
    return np.concatenate([Y[1, :, h:].ravel(), Y[:, 1, :, h:].ravel()])


@pytest.mark.parametrize("nh", [4, 5, 6, 7, 17])
def test_turned_A_matches_dense_product(nh):
    """The cache's A, one turn in of Asym kept in its unlike-parity
    blocks, is sqrt(w/2) S (2 Asym) S to rounding, for odd and even m, and
    exactly 0 where p + q is even."""
    mesh = build_mesh(nh)
    cache = StepMatrixCache(mass_matrix(mesh), stiffness_matrix(mesh))
    m = nh - 2
    S = sine_matrix(m)
    two_asym = np.eye(m, k=-1) - np.eye(m, k=1)    # U - U', U[i, i-1] = 1
    w = 1.0 / (12.0 * (m + 1) ** 2)
    want = np.sqrt(0.5 * w) * (S @ two_asym @ S)
    zero = np.zeros_like(cache._A[0])
    A = from_blocks(np.array([[zero, cache._A[0]], [cache._A[1], zero]]), m)
    assert np.abs(A - want).max() <= 1e-14 * np.abs(want).max()
    p = np.arange(1, m + 1)
    assert np.all(A[(p[:, None] + p) % 2 == 0] == 0.0)


@pytest.mark.parametrize("nh", [3, 4, 5, 6, 7, 17, 18])
def test_turns_match_dense_sine_transform(nh, rng):
    """The turn in folds and multiplies in parity blocks to the dense S X S,
    the turn out maps blocks Y to the dense S Y S, both to 1e-14 relative,
    for odd and even m; the turn in pads with exact zeros, and the turn out
    undoes it to rounding."""
    mesh = build_mesh(nh)
    cache = StepMatrixCache(mass_matrix(mesh), stiffness_matrix(mesh))
    m = nh - 2
    S = sine_matrix(m)
    X = rng.normal(size=(m, m))
    Y = cache._turn_in(X)
    want = S @ X @ S
    assert np.abs(from_blocks(Y, m) - want).max() <= 1e-14 * np.abs(want).max()
    assert np.all(padding(Y, m) == 0.0)
    Z = rng.normal(size=Y.shape)
    want = S @ from_blocks(Z, m) @ S
    assert (np.abs(cache._turn_out(Z).reshape(m, m) - want).max()
            <= 1e-14 * np.abs(want).max())
    assert (np.abs(cache._turn_out(Y).reshape(m, m) - X).max()
            <= 1e-14 * np.abs(X).max())


def test_pcg_zero_rhs_gives_exact_zeros():
    """A zero right-hand side gives exact zeros in no CG iteration, also
    from a nonzero guess, and so do its products and its DST-I
    coefficients."""
    mesh = build_mesh(17)
    cache = StepMatrixCache(mass_matrix(mesh), stiffness_matrix(mesh))
    for k in (0.0, 0.013):
        returned = cache.solve(k, np.zeros(cache.n), np.ones(cache.n))
        assert all(np.all(v == 0.0) for v in returned), k
        assert cache.record[-1] == ("pcg", k, 0)


def test_graded_march_reuses_products_bit_for_bit(rng):
    """cn_march forms each right-hand side from the M x and K x the
    previous solve returned: the march equals, to the last bit, one that
    forms both sparse products afresh and passes on only the DST-I
    coefficients, and it returns the last value's products equal to fresh
    ones.  Turning the previous value again instead of reusing its
    coefficients changes the guess by rounding only: to 1e-12 relative."""
    mesh = build_mesh(17)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    k = graded_grid(1.0, 16, 2).k
    loads = rng.normal(size=(len(k), Mh.shape[0]))
    x0 = rng.normal(size=Mh.shape[0])
    cache = StepMatrixCache(Mh, Kh)
    out = np.empty_like(loads)
    Mx, Kx = cn_march(cache, x0, k, k, loads, out)
    assert np.array_equal(Mx, Mh @ out[-1])
    assert np.array_equal(Kx, Kh @ out[-1])
    fresh, turned = StepMatrixCache(Mh, Kh), StepMatrixCache(Mh, Kh)
    x = y = x0
    xhat = None
    for i, load in enumerate(loads):
        rhs = Mh @ x + (-0.5 * k[i]) * (Kh @ x) + load
        x, _, _, xhat = fresh.solve(k[i], rhs, x, xhat)
        assert np.array_equal(x, out[i]), i
        rhs = Mh @ y + (-0.5 * k[i]) * (Kh @ y) + load
        y = turned.solve(k[i], rhs, y)[0]
        assert np.linalg.norm(y - out[i]) <= 1e-12 * np.linalg.norm(y), i
    assert cache.record == fresh.record
    assert {kind for kind, _, _ in cache.record} == {"pcg"}


@pytest.mark.parametrize("nh", [3, 4, 5, 17, 65, 129])
def test_pcg_step_solve_matches_band(nh, rng):
    """A step size solved once goes through PCG, builds no factor, and
    agrees with a solve by the banded factor to 1e-12 relative.  The
    preconditioner keeps it to at most 25 iterations from a random guess;
    plain CG takes hundreds at nh=65 and k=2."""
    mesh = build_mesh(nh)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    n = Mh.shape[0]
    for k in (0.0, 1e-6, 0.013, 1.0 / 6.0, 2.0):
        cache = StepMatrixCache(Mh, Kh)
        rhs, x0 = rng.normal(size=n), rng.normal(size=n)
        pcg = cache.solve(k, rhs.copy(), x0)[0]
        band, info = dpbtrs(cache.get(k), rhs, lower=1)
        assert info == 0, k
        assert [kind for kind, _, _ in cache.record] == ["pcg", "factor"], k
        assert (np.linalg.norm(pcg - band)
                <= 1e-12 * np.linalg.norm(band)), k
        assert cache.record[0][2] <= 25, k


@pytest.mark.parametrize("nh", [3, 5, 17, 65])
def test_solve_returns_sparse_products_of_x(nh, rng):
    """Every solve returns M x and K x equal to the sparse products of its
    x to the last bit: by the band, by PCG at k > 0 and by PCG at k = 0,
    the terminal solve.  PCG's DST-I coefficients turn back into x to the
    last bit through the cache's own turn out; the band returns none."""
    mesh = build_mesh(nh)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    for k, band in ((1e-6, True), (0.013, True), (2.0, True),
                    (1e-6, False), (0.013, False), (2.0, False),
                    (0.0, False)):
        cache = StepMatrixCache(Mh, Kh)
        rhs, x0 = rng.normal(size=cache.n), rng.normal(size=cache.n)
        if band:
            cache.get(k)
        x, Mx, Kx, xhat = cache.solve(k, rhs, x0)
        assert cache.record[-1][0] == ("band" if band else "pcg"), k
        assert np.array_equal(Mx, Mh @ x), (k, band)
        assert np.array_equal(Kx, Kh @ x), (k, band)
        if band:
            assert xhat is None
        else:
            assert np.array_equal(cache._turn_out(xhat), x)


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
    real = parapt.state._cg
    monkeypatch.setattr(parapt.state, "_cg", lambda operator, inverse, *args:
                        real(operator, 1.0, *args))
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
            cache.solve(k, rhs.copy(), x0)
        cache.get(k)
        x = cache.solve(k, rhs.copy(), x0)[0]
        assert (np.linalg.norm(rhs - (A + 0.5 * k * Kh) @ x)
                <= 1e-12 * np.linalg.norm(rhs)), k


@pytest.mark.parametrize("k", [0.0, 0.013])
def test_pcg_residual_guard_rejects_nan_stiffness(k, rng):
    """CG runs on the mesh's symbol and never meets a NaN in the cache's
    K, but the true residual through it is NaN, which the guard must not
    pass: it raises at k = 0, where K x is multiplied by 0, and at k > 0
    alike, after recording the solve."""
    mesh = build_mesh(17)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    K_nan = Kh.copy()
    K_nan.data[:] = np.nan
    cache = StepMatrixCache(Mh, K_nan)
    with pytest.raises(np.linalg.LinAlgError, match="residual"):
        cache.solve(k, rng.normal(size=cache.n), np.zeros(cache.n))
    assert [kind for kind, _, _ in cache.record] == ["pcg"]


@pytest.mark.parametrize("nh", [17, 18, 65])
def test_pcg_residual_guard_scale_is_the_real_symbols(nh, rng):
    """The guard's ||M + (k/2) K|| is the largest symbol entry over real
    modes, so a cache on (1 + 1e-9) M, whose solutions miss by a backward
    error of 4e-12 at nh=65 and k=0.013, still raises; an estimate that
    counted a padding of 1.0 would pass it there.  For odd m, every x^ a
    correct cache returns keeps its padding at exact zeros, also when the
    next solve starts from it."""
    mesh = build_mesh(nh)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    m = nh - 2
    for k in (0.0, 0.013):
        cache = StepMatrixCache((1.0 + 1e-9) * Mh, Kh)
        rhs, x0 = rng.normal(size=cache.n), rng.normal(size=cache.n)
        with pytest.raises(np.linalg.LinAlgError, match="residual"):
            cache.solve(k, rhs, x0)
        cache, xhat = StepMatrixCache(Mh, Kh), None
        for _ in range(2):
            xhat = cache.solve(k, rng.normal(size=cache.n), x0, xhat)[3]
            assert np.all(padding(xhat, m) == 0.0), k


def test_pcg_on_non_square_grid_raises():
    """n = 5 is no m x m grid: PCG raises LinAlgError naming n before any
    reshape or CG call; the band still solves."""
    cache = StepMatrixCache(sp.identity(5, format="csr"),
                            sp.identity(5, format="csr"))
    rhs = np.arange(5.0)
    with pytest.raises(np.linalg.LinAlgError, match="n=5"):
        cache.solve(0.5, rhs.copy(), np.zeros(5))
    assert cache.record == []
    cache.get(0.5)
    np.testing.assert_allclose(
        cache.solve(0.5, rhs.copy(), np.zeros(5))[0], rhs / 1.25,
        rtol=1e-15)


@pytest.mark.parametrize("k", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
def test_bad_step_size_raises_before_solving(k):
    """A negative or non-finite step size raises LinAlgError on both paths
    before any arithmetic, so no division by a vanishing symbol warns."""
    mesh = build_mesh(9)
    cache = StepMatrixCache(mass_matrix(mesh), stiffness_matrix(mesh))
    rhs = np.ones(cache.n)
    for band in (False, True):
        with np.errstate(all="raise"), pytest.raises(
                np.linalg.LinAlgError, match="finite and non-negative"):
            if band:
                cache.get(k)
            cache.solve(k, rhs, np.zeros(cache.n))
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
    cache = StepMatrixCache(mass_matrix(mesh), -stiffness_matrix(mesh))
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        cache.get(1.0)


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
        StepMatrixCache, "solve", lambda self, k, rhs, x0, xhat0=None:
        (np.full_like(rhs, np.nan),) * 3 + (None,) if k == 0
        else real(self, k, rhs, x0, xhat0))
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
