import numpy as np
import pytest
import scipy.linalg

from helpers import adjoint_stability_check, dense_adjoint_oracle
from parapt.adjoint import march_adjoint, solve_adjoint
from parapt.fem import build_mesh, mass_matrix, stiffness_matrix
from parapt.quadrature import gauss_points
from parapt.state import RhsTerm, StepMatrixCache, solve_state
from parapt.timegrid import make_grid, uniform_grid


@pytest.fixture(scope="module")
def small_space():
    mesh = build_mesh(4)
    Mh, Kh = mass_matrix(mesh), stiffness_matrix(mesh)
    return mesh, Mh, Kh, Mh.toarray(), Kh.toarray()


def test_zero_rhs_gives_zero(small_space):
    _, Mh, Kh, _, _ = small_space
    p = solve_adjoint(Mh, Kh, uniform_grid(1.0, 4))
    assert np.all(p.values == 0.0)


@pytest.mark.parametrize("M", [1, 2, 4])
def test_matches_dense_block_solve(small_space, rng, M):
    _, Mh, Kh, Md, Kd = small_space
    n = Mh.shape[0]
    grid = make_grid(np.concatenate([[0.0],
                                     np.cumsum(rng.uniform(0.05, 0.2, M))]))
    c = rng.normal(size=3)
    theta = lambda t, c=c: c[0] + c[1] * t + c[2] * t ** 2
    g = rng.normal(size=n)
    p = solve_adjoint(Mh, Kh, grid, terms=[RhsTerm(g, theta)])
    ref = dense_adjoint_oracle(Md, Kd, grid, theta, g)
    assert np.abs(p.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_piecewise_constant_part_matches_dense(small_space, rng):
    """The optimizer's tracking-term pathway (the interval loads k_m M y_m
    of a piecewise-constant trajectory, marched by march_adjoint) agrees
    with the dense solve fed the same loads."""
    _, Mh, Kh, Md, Kd = small_space
    n = Mh.shape[0]
    grid = make_grid([0.0, 0.25, 0.45, 0.9, 1.0])
    vals = rng.normal(size=(grid.M + 1, n))
    H = grid.k[:, None] * (Mh @ vals[:grid.M].T).T
    p = march_adjoint(StepMatrixCache(Mh, Kh), grid, H)
    loads = [grid.k[m] * (Md @ vals[m]) for m in range(grid.M)]
    ref = dense_adjoint_oracle(Md, Kd, grid, loads=loads)
    assert np.abs(p.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_reduces_to_scalar_backward_recurrence(small_space):
    _, Mh, Kh, Md, Kd = small_space
    lams, vecs = scipy.linalg.eigh(Kd, Md)
    lam, v = lams[0], vecs[:, 0]
    grid = make_grid([0.0, 0.3, 0.5, 1.0])
    theta = lambda t: 1.0 + 0.5 * t
    p = solve_adjoint(Mh, Kh, grid, terms=[RhsTerm(v, theta)])
    # exact interval integrals of theta
    ints = grid.k * (1.0 + 0.25 * (grid.t[:-1] + grid.t[1:]))
    coeff = np.zeros(grid.M + 1)
    for m in range(grid.M, 0, -1):
        km = grid.k[m - 1]
        coeff[m - 1] = ((1.0 - 0.5 * lam * km) * coeff[m] + ints[m - 1]) \
            / (1.0 + 0.5 * lam * km)
    np.testing.assert_allclose(p.values, np.outer(coeff, v), rtol=1e-11,
                               atol=1e-13)


def test_field_lives_on_the_solve_grid(small_space, rng):
    _, Mh, Kh, _, _ = small_space
    grid = make_grid(np.concatenate([[0.0],
                                     np.cumsum(rng.uniform(0.05, 0.2, 5))]))
    g = rng.normal(size=Mh.shape[0])
    p = solve_adjoint(Mh, Kh, grid, terms=[RhsTerm(g, np.cos)])
    np.testing.assert_array_equal(p.grid.t, grid.t)
    assert len(p.values) == grid.M + 1


def test_terminal_value_is_zero(small_space, rng):
    _, Mh, Kh, _, _ = small_space
    g = rng.normal(size=Mh.shape[0])
    p = solve_adjoint(Mh, Kh, uniform_grid(1.0, 5),
                      terms=[RhsTerm(g, np.cos)])
    assert np.all(p.values[-1] == 0.0)


def test_depends_only_on_interval_means(small_space):
    """Replacing the right-hand side by its interval means leaves the
    solution unchanged: only the integrals over each interval enter."""
    _, Mh, Kh, _, _ = small_space
    g = np.linspace(0.2, 1.0, Mh.shape[0])
    theta = lambda t: np.exp(-t) * np.cos(3.0 * t)
    for M in (4, 16):
        grid = uniform_grid(1.0, M)
        pts, wts = gauss_points(grid.t[:-1], grid.t[1:])
        means = (wts * theta(pts)).sum(axis=1) / grid.k
        step = lambda t, m=means, gr=grid: m[gr.interval_index(t)]
        p_smooth = solve_adjoint(Mh, Kh, grid, terms=[RhsTerm(g, theta)])
        p_means = solve_adjoint(Mh, Kh, grid,
                                terms=[RhsTerm(g, step, breaks=grid.t[1:-1])])
        scale = np.abs(p_smooth.values).max()
        assert np.abs(p_smooth.values - p_means.values).max() <= 1e-11 * scale


def test_discrete_duality_identity(small_space, rng):
    """With zero initial data, the force-against-adjoint pairing equals
    the tracking-data-against-state pairing."""
    _, Mh, Kh, _, _ = small_space
    n = Mh.shape[0]
    grid = make_grid([0.0, 0.2, 0.35, 0.7, 1.0])
    # polynomial factors keep every quadrature in the identity exact
    f = RhsTerm(rng.normal(size=n), lambda t: 0.3 + t ** 2 - t ** 3)
    h = RhsTerm(rng.normal(size=n), lambda t: 1.0 - 0.5 * t + t ** 2)
    y = solve_state(Mh, Kh, grid, [f], np.zeros(n))
    p = solve_adjoint(Mh, Kh, grid, terms=[h])
    Mgf = Mh @ f.spatial
    Mgh = Mh @ h.spatial
    pts, wts = gauss_points(grid.t[:-1], grid.t[1:])
    lhs = rhs = 0.0
    for m in range(grid.M):
        pvals = p.value(pts[m])            # linear in t, degree-2 products
        lhs += float(wts[m] @ (f.temporal(pts[m]) * (pvals @ Mgf)))
        rhs += float(wts[m] @ h.temporal(pts[m])) * float(y.values[m] @ Mgh)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_stability_constant_bounded(small_space):
    _, Mh, Kh, _, _ = small_space
    n = Mh.shape[0]
    g = np.full(n, 0.7)
    theta = lambda t: np.cos(2.0 * t)
    term = RhsTerm(g, theta)
    ratios = []
    for M in (4, 16, 64, 128):
        grid = uniform_grid(1.0, M)
        p = solve_adjoint(Mh, Kh, grid, terms=[term])
        pts, wts = gauss_points(grid.t[:-1], grid.t[1:])
        rhs_norm = np.sqrt(float((wts * theta(pts) ** 2).sum())
                           * float(g @ (Mh @ g)))
        ratios.append(adjoint_stability_check(p, rhs_norm, Mh, Kh, grid))
    ratios = np.asarray(ratios)
    assert ratios.max() <= 5.0
    assert ratios.max() / ratios.min() <= 1.1


def test_stability_check_against_pointwise_quadrature(small_space, rng):
    """The row-wise check against sampling ||p(t)||^2 at Gauss points (two
    per interval integrate the quadratic exactly) plus the difference
    quotients, on a non-uniform grid."""
    _, Mh, Kh, Md, Kd = small_space
    grid = make_grid([0.0, 0.1, 0.35, 0.4, 1.0])
    p = solve_adjoint(Mh, Kh, grid, terms=[
        RhsTerm(rng.normal(size=Mh.shape[0]), np.cos)])
    pts, wts = gauss_points(grid.t[:-1], grid.t[1:], rule=2)
    vals = p.value(pts)                               # (M, 2, n)
    sq_l2 = float(np.einsum("mq,mqi,ij,mqj->", wts, vals, Md, vals))
    d = np.diff(p.values, axis=0) / grid.k[:, None]
    sq_dt = float(grid.k @ np.einsum("mi,ij,mj->m", d, Md, d))
    want = (np.sqrt(sq_l2 + sq_dt)
            + np.sqrt(p.values[0] @ Kd @ p.values[0])) / 2.0
    got = adjoint_stability_check(p, 2.0, Mh, Kh, grid)
    assert got == pytest.approx(want, rel=1e-12)
