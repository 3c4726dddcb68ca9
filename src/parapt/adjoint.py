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

from .fem import l2_sq_rows
from .state import StepMatrixCache, cn_march, hat_moments
from .timegrid import PiecewiseLinearField


def _interval_loads(M_h, grid, pc_part, terms):
    """H_m = integral of (h, phi_i) over I_m, for m = 1..M."""
    H = np.zeros((grid.M, M_h.shape[0]))
    if pc_part is not None:
        H += grid.k[:, None] * (M_h @ pc_part.values[:grid.M].T).T
    for term in terms:
        w = hat_moments(term, grid).sum(axis=1)
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
    betas = np.zeros((grid.M + 1, M_h.shape[0]))
    k = grid.k[::-1]
    cn_march(cache, betas[-1], k, k, H[::-1], betas[-2::-1])
    return PiecewiseLinearField(grid.t.copy(), betas)


def adjoint_stability_check(p_k, rhs_norm, M_h, K_h, grid):
    """(||p_k||_{H1(L2)} + ||grad p_k(0)||) / ||h||, bounded uniformly."""
    a, b = p_k.values[:-1], p_k.values[1:]
    # Simpson is exact for the quadratic t -> ||p(t)||^2
    sq_l2 = grid.k / 6.0 @ (l2_sq_rows(M_h, a) + l2_sq_rows(M_h, b)
                            + 4.0 * l2_sq_rows(M_h, 0.5 * (a + b)))
    sq_dt = grid.k @ l2_sq_rows(M_h, (b - a) / grid.k[:, None])
    h1 = np.sqrt(sq_l2 + sq_dt)
    grad0 = np.sqrt(max(float(a[0] @ (K_h @ a[0])), 0.0))
    return (h1 + grad0) / rhs_norm
