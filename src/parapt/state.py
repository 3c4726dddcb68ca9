"""Forward state solver: piecewise-constant ansatz, piecewise-linear tests.

Testing the space-time weak form with the nodal hat functions decouples
into a sweep that looks like Crank-Nicolson between interval values with
a damped (implicit-Euler-like) first step and a mass-matrix solve that
produces the terminal value:

    (M + k_1/2 K) a_1      = M y0 + F_0
    (M + k_{m+1}/2 K) a_{m+1} = (M - k_m/2 K) a_m + F_m
    M a_{M+1}              = (M - k_M/2 K) a_M + F_M

where F_m integrates the load against the hat at t_m.  The first step
damps rough initial data, which is what rescues second-order accuracy of
the interval values in the mean-square sense.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs
from scipy.sparse.linalg import cg

from .fem import interpolate, l2_sq_rows
from .quadrature import gauss_points, split_at
from .timegrid import PiecewiseConstantField


@dataclass
class RhsTerm:
    """Separable load theta(t) * g(x).

    ``spatial`` holds interior nodal coefficients of g.  ``temporal`` must
    accept numpy arrays.  ``breaks`` lists interior kink locations of
    theta (clamp crossings); integration splits there, so piecewise-smooth
    factors are integrated essentially exactly.
    """
    spatial: np.ndarray
    temporal: Callable
    breaks: np.ndarray = field(default_factory=lambda: np.zeros(0))


def discretize_terms(mesh, terms):
    """RhsTerms of SeparableTerms, profiles interpolated on ``mesh``."""
    return [RhsTerm(interpolate(mesh, s.profile), s.theta,
                    breaks=np.asarray(s.breaks, dtype=float)) for s in terms]


def separable_sq_norm(terms, M_h, grid):
    """Integral over (0, T) of ||sum_i theta_i(t) g_i||^2 in L2(Omega),
    cross terms included, by 5-point Gauss per interval of ``grid``."""
    if not terms:
        return 0.0
    G = np.column_stack([t.spatial for t in terms])
    gram = G.T @ (M_h @ G)
    pts, wts = gauss_points(grid.t[:-1], grid.t[1:])
    theta = np.array([np.asarray(t.temporal(pts), dtype=float)
                      for t in terms])
    return float(np.einsum("ipq,jpq,ij,pq->", theta, theta, gram, wts))


def hat_moments(term, grid):
    """(M, 2) integrals of theta against the falling and the rising hat of
    each interval I_m, by 10-point Gauss on pieces split at the breaks.

    The state load at t_j is mom[j, 0] + mom[j-1, 1]; the plain integral
    over I_m, which the adjoint load takes, is mom[m-1].sum().
    """
    edges = split_at(grid.t, term.breaks)
    parents = grid.interval_index(0.5 * (edges[:-1] + edges[1:]))
    pts, wts = gauss_points(edges[:-1], edges[1:], rule=10)
    wt = wts * np.asarray(term.temporal(pts), dtype=float)
    t0 = grid.t[parents][:, None]
    up = (pts - t0) / (grid.t[parents + 1][:, None] - t0)
    mom = np.zeros((grid.M, 2))
    np.add.at(mom, parents, np.column_stack(
        [(wt * (1.0 - up)).sum(axis=1), (wt * up).sum(axis=1)]))
    return mom


def term_moments(terms, grid):
    """(terms, M, 2) array of the hat_moments of each term."""
    return np.reshape([hat_moments(t, grid) for t in terms],
                      (len(terms), grid.M, 2))


def mass_rows(M_h, vectors):
    """(len(vectors), n) array of the rows M v."""
    return np.reshape([M_h @ v for v in vectors],
                      (len(vectors), M_h.shape[0]))


class StepMatrixCache:
    """Banded Cholesky factor of M + (k/2) K for the latest step size.

    The constructor stores the nonzero sub-diagonals of M and K (offsets
    0, 1, n and n+1 on an n x n grid of interior nodes) as two small
    dense arrays.  Each new step size writes m + (k/2) kappa into those
    rows of a zero LAPACK lower band, in the sparse sum's operation order,
    and factors it in place.  Only one factor is alive at a time: on a
    uniform grid every step hits it, and on a graded grid each new step
    size replaces it, so memory does not grow with the number of
    intervals.  Step sizes are compared after rounding to 12 significant
    digits, because the differences of a linspace differ in the last bits;
    the factor is built from the first step size of its class.
    """

    def __init__(self, M_h, K_h):
        self.M_h = M_h
        self.K_h = K_h
        self._offsets = np.flatnonzero(np.bincount(np.concatenate(
            [(c.row - c.col)[(c.row >= c.col) & (c.data != 0)]
             for c in (M_h.tocoo(), K_h.tocoo())])))
        self._Md, self._Kd = (
            np.array([np.pad(A.diagonal(-d), (0, d)) for d in self._offsets])
            for A in (M_h, K_h))
        self._key = None
        self._factor = None

    def get(self, k):
        """Lower banded Cholesky factor of M + (k/2) K."""
        key = float(f"{float(k):.12g}")
        if key != self._key:
            self._factor = None          # release the old factor first
            band = np.zeros((self._offsets[-1] + 1, self.M_h.shape[0]),
                            order="F")      # LAPACK layout: factored in place
            band[self._offsets] = self._Md + 0.5 * float(k) * self._Kd
            self._factor = cholesky_banded(band, overwrite_ab=True,
                                           lower=True, check_finite=False)
            self._key = key
        return self._factor

    def solve(self, k, rhs):
        """Solve (M + (k/2) K) x = rhs for step size k; may overwrite rhs."""
        x, info = dpbtrs(self.get(k), rhs, lower=1, overwrite_b=1)
        if info:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        return x


def _mass_solve(M_h, rhs, x0):
    """Solve M x = rhs by Jacobi-preconditioned CG to relative residual
    1e-14.  A non-finite right-hand side gives NaN at once rather than
    a full budget of iterations on NaN."""
    if not np.all(np.isfinite(rhs)):
        return np.full_like(rhs, np.nan)
    x, info = cg(M_h, rhs, x0=x0, rtol=1e-14, atol=0.0,
                 M=sp.diags(1.0 / M_h.diagonal()))
    if info:
        raise np.linalg.LinAlgError(
            f"mass-matrix CG stopped at info={info} before rtol 1e-14")
    return x


class NonFiniteSweepError(ArithmeticError):
    """A time sweep produced a non-finite value; ``step`` is the first
    such step, counted from 1 in the order of the march."""

    def __init__(self, step):
        super().__init__(f"non-finite value at step {step} of a time sweep")
        self.step = step


def cn_march(cache, x, k_explicit, k_implicit, loads, out):
    """Crank-Nicolson march: out[i] = x <- (M + k_i/2 K)^-1 ((M - k'_i/2 K)
    x + l_i) for each load l_i, with k'_i = k_explicit[i] and k_i =
    k_implicit[i]; the StepMatrixCache ``cache`` supplies M, K and the
    factors.  Writing into the caller's field avoids a copy of it.  Raises
    NonFiniteSweepError if any value written is not finite."""
    M_h, K_h = cache.M_h, cache.K_h
    for i, load in enumerate(loads):
        rhs = M_h @ x
        rhs -= 0.5 * k_explicit[i] * (K_h @ x)
        rhs += load
        x = out[i] = cache.solve(k_implicit[i], rhs)
    finite = np.isfinite(out[:len(loads)]).all(axis=1)
    if not finite.all():
        raise NonFiniteSweepError(int(np.argmin(finite)) + 1)


def march_state(cache, grid, mom, MG, y0):
    """March the damped scheme forward under the loads F_j = sum_i (mom[i,
    j, 0] + mom[i, j-1, 1]) MG[i].  The terminal row holds the right-hand
    side of the terminal mass solve: sweeps read interval values only."""
    F = (np.pad(mom[..., 0], ((0, 0), (0, 1)))
         + np.pad(mom[..., 1], ((0, 0), (1, 0)))).T @ MG
    k = grid.k
    alphas = np.empty_like(F)
    cn_march(cache, np.asarray(y0, dtype=float),
             np.concatenate([[0.0], k[:-1]]), k, F[:-1], alphas)
    a = alphas[-2]
    alphas[-1] = cache.M_h @ a - 0.5 * k[-1] * (cache.K_h @ a) + F[-1]
    return PiecewiseConstantField(grid, alphas)


def terminal_solve(M_h, y):
    """Complete a march_state field in place; a non-finite terminal value
    (step M+1) raises NonFiniteSweepError."""
    v = y.values
    v[-1] = _mass_solve(M_h, v[-1], x0=v[-2])
    if not np.isfinite(v[-1]).all():
        raise NonFiniteSweepError(len(v))
    return y


def solve_state(M_h, K_h, grid, terms, y0, cache=None):
    """March the damped scheme forward; returns the interval-value field.
    A non-finite value, the terminal one (step M+1) included, raises
    NonFiniteSweepError."""
    return terminal_solve(M_h, march_state(
        cache or StepMatrixCache(M_h, K_h), grid, term_moments(terms, grid),
        mass_rows(M_h, [t.spatial for t in terms]), y0))


def state_l2_stability_check(y_k, terms, y0, M_h, grid):
    """Ratio ||y_k|| / (||f|| + ||y0||) in L2(L2); bounded uniformly in k."""
    num = np.sqrt(float(grid.k @ l2_sq_rows(M_h, y_k.values[:grid.M])))
    f_norm = np.sqrt(max(separable_sq_norm(terms, M_h, grid), 0.0))
    y0_norm = np.sqrt(max(float(np.asarray(y0) @ (M_h @ y0)), 0.0))
    return num / (f_norm + y0_norm)
