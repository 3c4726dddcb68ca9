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

from .state import StepMatrixCache, cn_march, mass_rows, term_moments
from .timegrid import PiecewiseLinearField


def march_adjoint(cache, grid, H):
    """March backward from beta_M = 0 under the interval loads H."""
    betas = np.zeros((grid.M + 1, H.shape[1]))
    k = grid.k[::-1]
    cn_march(cache, betas[-1], k, k, H[::-1], betas[-2::-1])
    return PiecewiseLinearField(grid, betas)


def solve_adjoint(M_h, K_h, grid, terms=(), cache=None):
    """March backward from beta_M = 0 under the separable ``terms``;
    returns the nodal-value field.  The optimizer builds its loads, state
    part included, itself and calls march_adjoint."""
    H = term_moments(terms, grid).sum(axis=2).T @ mass_rows(
        M_h, [t.spatial for t in terms])
    return march_adjoint(cache or StepMatrixCache(M_h, K_h), grid, H)
