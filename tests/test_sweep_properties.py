"""Property tests: both time sweeps against the dense space-time oracles
of criteria 1-2, on random meshes, random non-uniform grids and random
quadratic-in-time loads."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_adjoint_oracle, dense_state_oracle
from parapt.adjoint import solve_adjoint
from parapt.fem import build_mesh, mass_matrix, stiffness_matrix
from parapt.state import RhsTerm, solve_state
from parapt.timegrid import make_grid

MESHES = {n: build_mesh(n) for n in (3, 4, 5)}
steps = st.lists(st.floats(0.01, 0.4), min_size=1, max_size=6)
coefficients = st.lists(st.floats(-2.0, 2.0, allow_subnormal=False),
                        min_size=3, max_size=3)


def sweep_case(n, ks, c, seed):
    mesh = MESHES[n]
    M_h, K_h = mass_matrix(mesh), stiffness_matrix(mesh)
    grid = make_grid(np.concatenate([[0.0], np.cumsum(ks)]))
    rng = np.random.default_rng(seed)
    g, y0 = rng.normal(size=(2, M_h.shape[0]))

    def theta(t):
        t = np.asarray(t, dtype=float)
        return c[0] + c[1] * t + c[2] * t * t

    return M_h, K_h, grid, theta, g, y0


def rel_diff(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MESHES)), steps, coefficients,
       st.integers(0, 2**32 - 1))
def test_state_sweep_matches_dense_oracle(n, ks, c, seed):
    M_h, K_h, grid, theta, g, y0 = sweep_case(n, ks, c, seed)
    got = solve_state(M_h, K_h, grid, [RhsTerm(g, theta)], y0).values
    ref = dense_state_oracle(M_h.toarray(), K_h.toarray(), grid, theta, g, y0)
    assert rel_diff(got, ref) <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MESHES)), steps, coefficients,
       st.integers(0, 2**32 - 1))
def test_adjoint_sweep_matches_dense_oracle(n, ks, c, seed):
    M_h, K_h, grid, theta, g, _ = sweep_case(n, ks, c, seed)
    got = solve_adjoint(M_h, K_h, grid, terms=[RhsTerm(g, theta)]).values
    ref = dense_adjoint_oracle(M_h.toarray(), K_h.toarray(), grid,
                               theta=theta, g=g)
    assert rel_diff(got, ref) <= 1e-9
