"""Backward adjoint solver: piecewise-linear ansatz, piecewise-constant tests.

Testing the adjoint weak form with interval indicators gives a backward
Crank-Nicolson sweep for the nodal values beta_m, started from the exact
terminal condition beta_M = 0 (the test function concentrated at t = T
enforces it):

    (M + k_m/2 K) beta_{m-1} = (M - k_m/2 K) beta_m + H_m,

with H_m the plain time integral of the right-hand side over I_m.  Only
those interval integrals enter, so the solution depends on the data
exclusively through its interval means.
"""

import numpy as np

from .state import StepMatrixCache, interval_time_integrals
from .timegrid import PiecewiseConstantField, PiecewiseLinearField


def _interval_loads(M_h, grid, pc_part, terms):
    """H_m = integral of (h, phi_i) over I_m, for m = 1..M."""
    H = np.zeros((grid.M, M_h.shape[0]))
    if pc_part is not None:
        H += grid.k[:, None] * (M_h @ pc_part.values[:grid.M].T).T
    for term in terms:
        w = interval_time_integrals(term, grid)
        H += np.outer(w, M_h @ term.spatial)
    return H


def solve_adjoint(M_h, K_h, grid, pc_part=None, terms=(), cache=None):
    """March backward from beta_M = 0; returns the nodal-value field.

    The right-hand side is the sum of an optional piecewise-constant field
    (the discrete state in the optimality system) and separable terms (the
    tracking target, negated by the caller).
    """
    H = _interval_loads(M_h, grid, pc_part, terms)
    cache = cache or StepMatrixCache(M_h, K_h)
    M = grid.M
    betas = np.zeros((M + 1, M_h.shape[0]))
    b = betas[M]
    for m in range(M, 0, -1):
        rhs = M_h @ b - 0.5 * grid.k[m - 1] * (K_h @ b) + H[m - 1]
        b = cache.solve(grid.k[m - 1], rhs)
        betas[m - 1] = b
    return PiecewiseLinearField(grid.t.copy(), betas)


def adjoint_stability_check(p_k, rhs_norm, M_h, K_h, grid):
    """(||p_k||_{H1(L2)} + ||grad p_k(0)||) / ||h||, bounded uniformly."""
    betas = p_k.values
    sq_l2 = 0.0
    sq_dt = 0.0
    for m in range(grid.M):
        a, b = betas[m], betas[m + 1]
        mid = 0.5 * (a + b)
        # Simpson is exact for the quadratic t -> ||p(t)||^2
        sq_l2 += grid.k[m] / 6.0 * (
            float(a @ (M_h @ a)) + 4.0 * float(mid @ (M_h @ mid))
            + float(b @ (M_h @ b)))
        d = (b - a) / grid.k[m]
        sq_dt += grid.k[m] * float(d @ (M_h @ d))
    h1 = np.sqrt(sq_l2 + sq_dt)
    grad0 = np.sqrt(max(float(betas[0] @ (K_h @ betas[0])), 0.0))
    return (h1 + grad0) / rhs_norm
