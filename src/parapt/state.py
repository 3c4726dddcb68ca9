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
the interval values in the mean-square sense.  Every solve, the terminal
one included as the step size k = 0, goes through StepMatrixCache.solve.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs
from scipy.sparse.linalg import LinearOperator, cg

from .fem import interpolate
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


def _step_key(k):
    """k rounded to 12 significant digits; a negative or non-finite k
    raises LinAlgError."""
    k = float(k)
    if not 0.0 <= k < np.inf:
        raise np.linalg.LinAlgError(
            f"step size must be finite and non-negative, got {k}")
    return float(f"{k:.12g}")


class StepMatrixCache:
    """Solves with M + (k/2) K, step size by step size.

    The rule has no knob: a step size is factored when a march solves with
    it at least twice in a row, and a step size solved once is solved by
    conjugate gradients.  A uniform grid thus builds one factor, at its
    first step, and serves every step with it; a graded grid, whose step
    sizes all differ, builds none.  The terminal mass solve is the step
    size k = 0, solved once, so it is a CG solve.  Step sizes are compared
    after rounding to 12 significant digits, because the differences of a
    linspace differ in the last bits.

    CG runs in the orthonormal DST-I basis S of the m x m grid X of
    interior nodes (S symmetric, S S = I), where M + sK is exact and cheap.
    With U the 1-D shift, Sym = (U + U')/2 and Asym = (U - U')/2, the mass
    stencil's diagonal neighbours are U X U' + U' X U = 2 (Sym X Sym + Asym
    X Asym'), S Sym S = diag(c_p) and S K S is lambda_p + lambda_q, so

        S (M + sK) S : X^ -> symbol * X^ + A X^ A',   A = sqrt(2 w) S Asym S

    with w = h^2/12, h = 1/(m+1), c_p = cos(p pi/(m+1)), lambda_p = 2 - 2 c_p
    and the symbol of the separable operator of Concus and Golub (1973)

        w (6 + 2 c_p + 2 c_q + 2 c_p c_q) + s (lambda_p + lambda_q),

    which, divided out, preconditions CG.  A is a dense m x m skew matrix.

    The cache keeps M, K, S, A, the two symbols and its one live factor:
    each study's cache factors at most once (a uniform grid at its first
    step, a graded grid never), so nothing is precomputed for a factor.  A
    factor writes the lower triangle of the sparse sum M + (k/2) K into a
    zero LAPACK lower band and factors it in place.  Only one factor is
    alive at a time, so memory does not grow with the number of intervals.

    ``record`` lists, in order, ("factor", k, None) per factor built,
    ("band", k, None) per banded solve and ("pcg", k, n) per PCG solve of n
    CG iterations (None when a non-finite rhs skips CG); a solve that fails
    after CG is recorded before it raises.
    """

    def __init__(self, M_h, K_h):
        self.n = M_h.shape[0]
        self._M, self._K = M_h, K_h
        m = math.isqrt(self.n)
        j = np.arange(1, m + 1)
        c = np.cos(j * np.pi / (m + 1))
        cp, cq = c[:, None], c[None, :]
        w = 1.0 / (12.0 * (m + 1) ** 2)
        self._mass_symbol = w * (6.0 + 2.0 * cp + 2.0 * cq + 2.0 * cp * cq)
        self._stiffness_symbol = (2.0 - 2.0 * cp) + (2.0 - 2.0 * cq)
        # sine arguments reduced modulo 2 pi in integers, so S keeps the
        # identity to rounding at every m
        self._S = math.sqrt(2.0 / (m + 1)) * np.sin(
            np.outer(j, j) % (2 * m + 2) * np.pi / (m + 1))
        rows = np.pad(self._S, ((1, 1), (0, 0)))  # 2 Asym S: rows i-1 - i+1
        self._A = math.sqrt(0.5 * w) * (self._S @ (rows[:-2] - rows[2:]))
        self._key = None
        self._factor = None
        self.record = []

    def product(self, x, s):
        """M x + s K x, the sum of the two sparse products; at s = 0 it is
        M x alone, so K x is neither formed nor able to spread a NaN."""
        r = self._M @ x
        if s:
            r += s * (self._K @ x)
        return r

    def get(self, k):
        """Lower banded Cholesky factor of M + (k/2) K."""
        key = _step_key(k)
        if key != self._key:
            self._factor = None          # release the old factor first
            low = sp.tril(self._M + 0.5 * float(k) * self._K).tocoo()
            offset = low.row - low.col
            band = np.zeros((offset.max(initial=0) + 1, self.n),
                            order="F")      # LAPACK layout: factored in place
            band[offset, low.col] = low.data
            self._factor = cholesky_banded(band, overwrite_ab=True,
                                           lower=True, check_finite=False)
            self._key = key
            self.record.append(("factor", float(k), None))
        return self._factor

    def solve(self, k, rhs, x0, repeats):
        """Solve (M + (k/2) K) x = rhs for step size k; may overwrite rhs.
        ``repeats`` says whether the next solve has the same step size;
        unless it does, or k's factor is alive, PCG solves from the guess
        x0."""
        if _step_key(k) != self._key and not repeats:
            return self._pcg(float(k), rhs, x0)
        x, info = dpbtrs(self.get(k), rhs, lower=1, overwrite_b=1)
        self.record.append(("band", float(k), None))
        if info:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        return x

    def _pcg(self, k, rhs, x0):
        """CG on S (M + (k/2) K) S, preconditioned by 1/symbol, to relative
        residual 1e-14 in at most 100 iterations.  S is orthogonal, so this
        is CG on M + (k/2) K under the separable solve, turned.  A
        non-finite right-hand side gives NaN at once.  CG never multiplies
        by the cache's M and K, so one true residual r through them checks
        x: it raises LinAlgError when the backward error ||r|| / (||rhs||
        + ||M + (k/2) K|| ||x||) is above 1e-12, as it does on a grid that
        is not square.  A bound on ||r|| / ||rhs|| alone would fail correct
        solves, since rounding x costs ||M + (k/2) K|| ||x|| eps, which is
        thousands of times eps ||rhs|| on fine meshes."""
        S, A = self._S, self._A
        m = len(S)
        if m * m != self.n:
            raise np.linalg.LinAlgError(
                f"step PCG needs an m x m grid of nodes, got n={self.n}")
        if not np.all(np.isfinite(rhs)):
            self.record.append(("pcg", k, None))
            return np.full_like(rhs, np.nan)
        symbol = self._mass_symbol + 0.5 * k * self._stiffness_symbol

        def turn(x):                     # S X S, its own inverse
            return (S @ np.reshape(x, (m, m)) @ S).ravel()

        def operator(x):
            x = np.reshape(x, (m, m))
            return (symbol * x + A @ x @ A.T).ravel()

        shape = (self.n, self.n)
        inverse = 1.0 / symbol.ravel()
        iterates = []                    # one entry per CG iteration
        y, info = cg(
            LinearOperator(shape, operator, dtype=float),
            turn(rhs), x0=turn(x0), rtol=1e-14, atol=0.0, maxiter=100,
            M=LinearOperator(shape, lambda r: inverse * r.ravel(),
                             dtype=float), callback=iterates.append)
        self.record.append(("pcg", k, len(iterates)))
        if info:
            raise np.linalg.LinAlgError(
                f"step CG stopped at info={info} before rtol 1e-14")
        x = turn(y)
        # normwise backward error: max(symbol) is ||M + (k/2) K|| to 1%
        residual = np.linalg.norm(rhs - self.product(x, 0.5 * k))
        scale = (np.linalg.norm(rhs)
                 + symbol.max(initial=0.0) * np.linalg.norm(x))
        if residual > 1e-12 * scale:
            raise np.linalg.LinAlgError(
                f"step PCG residual {residual / scale:.1e} in backward "
                "error, above 1e-12: M + (k/2) K is not the mesh's")
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
    k_implicit[i]; the StepMatrixCache ``cache`` supplies the products
    and the solves, and a PCG solve starts from the previous value.
    Writing into the caller's field avoids a copy of it.  Raises
    NonFiniteSweepError if any value written is not finite."""
    keys = [_step_key(k) for k in k_implicit]
    for i, load in enumerate(loads):
        rhs = cache.product(x, -0.5 * k_explicit[i])
        rhs += load
        # repeats: the next step, if there is one, has the same key
        x = out[i] = cache.solve(k_implicit[i], rhs, x,
                                 keys[i + 1:i + 2] == keys[i:i + 1])
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
    alphas[-1] = cache.product(a, -0.5 * k[-1]) + F[-1]
    return PiecewiseConstantField(grid, alphas)


def terminal_solve(cache, y):
    """Complete a march_state field in place by the k = 0 solve of the
    StepMatrixCache ``cache``, from the last interval value; a non-finite
    terminal value (step M+1) raises NonFiniteSweepError."""
    v = y.values
    v[-1] = cache.solve(0.0, v[-1], v[-2], repeats=False)
    if not np.isfinite(v[-1]).all():
        raise NonFiniteSweepError(len(v))
    return y


def solve_state(M_h, K_h, grid, terms, y0, cache=None):
    """March the damped scheme forward; returns the interval-value field.
    A non-finite value, the terminal one (step M+1) included, raises
    NonFiniteSweepError."""
    cache = cache or StepMatrixCache(M_h, K_h)
    return terminal_solve(cache, march_state(
        cache, grid, term_moments(terms, grid),
        mass_rows(M_h, [t.spatial for t in terms]), y0))
