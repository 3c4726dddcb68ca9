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


def _same_step(a, b):
    """Whether step sizes a and b lie within 1e-10 relative of each other (NaN
    with none).  A linspace's M steps over (0, T) differ by at most 1.7 eps T
    (eight T in [0.1, 10], M <= 16384): every uniform grid up to M = 2.7e5 is
    one step size, no graded_grid of exponent 1.5 or 2, M < 2000, is."""
    return math.isclose(a, b, rel_tol=1e-10)


def _one_step_size(k):
    """Whether the step sizes k are all one step size by _same_step."""
    return _same_step(np.min(k), np.max(k))


_BAND_BELOW_M = 127   # m; see StepMatrixCache


def _cg(operator, inverse, b, y, tol):
    """Conjugate gradients on operator(y) = b from y, which it overwrites,
    preconditioned by the product with ``inverse``, until the residual's
    norm is at most tol.  Returns the number of iterations, 100 when it
    gives up there."""
    r = b - operator(y)
    p, rho_old = np.zeros_like(b), 1.0
    for its in range(100):
        if np.linalg.norm(r) <= tol:
            return its
        z = inverse * r
        rho = np.vdot(r, z)
        p *= rho / rho_old
        p += z
        q = operator(p)
        alpha = rho / np.vdot(p, q)
        y += alpha * p
        r -= alpha * q
        rho_old = rho
    return 100


class StepMatrixCache:
    """Solves with M + (k/2) K, step size by step size.

    The rule has no knob and is made once per march: on a grid of m x m
    interior nodes with m below 127 (nh = m + 2 below 129), cn_march
    factors the step size of a march of more than one step, all of one
    step size, before its first step, so a uniform grid builds one factor
    for all its steps.  A solve takes the band exactly when its step size
    is the live factor's by _same_step, and PCG otherwise: every step of a
    graded grid, every step from m = 127 on, and the terminal k = 0 solve.

    The crossover is measured per step of a warm-started 32-step uniform
    march at k = 0.0031 and 0.016 on one BLAS thread of a 2-core x86-64
    box, as the range of medians of 15 runs over both k and two repeats:
    a banded solve against a PCG solve with its residual check, and the
    factor the band needs first:

        nh    band          PCG           factor
        65    0.34-0.45 ms  0.46-0.74 ms   4-6 ms
        97    0.92-1.03 ms  0.95-1.05 ms  10-15 ms
        113   1.78-1.97 ms  1.24-1.83 ms  16-22 ms
        129   2.64-3.87 ms  1.73-2.55 ms  25-31 ms

    From nh = 97 on PCG keeps up with the band; at nh = 129 the band of
    (m + 2) n doubles (16.6 MB) no longer pays.

    PCG runs in the orthonormal DST-I basis S of the m x m grid X of
    interior nodes (S symmetric, S S = I), where M + sK is exact and cheap.
    With U the 1-D shift, Sym = (U + U')/2 and Asym = (U - U')/2, the mass
    stencil's diagonal neighbours are U X U' + U' X U = 2 (Sym X Sym + Asym
    X Asym'), S Sym S = diag(c_p) and S K S is lambda_p + lambda_q, so

        S (M + sK) S : X^ -> symbol * X^ + A X^ A',   A = sqrt(2 w) S Asym S

    with w = h^2/12, h = 1/(m+1), c_p = cos(p theta), theta = pi/(m+1),
    lambda_p = 2 - 2 c_p and the symbol of the separable operator of Concus
    and Golub (1973)

        w (6 + 2 c_p + 2 c_q + 2 c_p c_q) + s (lambda_p + lambda_q),

    which, divided out, preconditions CG.  A is a dense m x m skew matrix,
    0 where p + q is even, and one turn in of Asym builds it.

    PCG holds X^ in parity blocks, a (2, 2, o, o) array of the modes of
    parity a by parity b, odd modes p = 1, 3, ... first, the even ones
    padded with exact zeros to o = (m + 1) // 2.  S[p, m+1-q] = (-1)^(p+1)
    S[p, q], so S is blockdiag(F_O, F_E) after a butterfly, the odd/even
    reduction of Buzbee, Golub and Nielson (1970): a turn folds rows and
    columns into sums and differences of mirror nodes and makes one
    batched product with F on each side.  A couples only modes of unlike
    parity, so A X^ A' maps block (a, b) to -A[a, a'] X^[a', b'] A[b', b],
    a' the other parity: one batched product on each side of the reversed
    blocks, half the dense product's work.

    The cache keeps M, K, F and its transpose, A[odd, even] and A[even,
    odd], the two padded symbols (about 3.5 m^2 doubles) and one live
    factor, whatever the number of intervals; it factors at most once per
    study (a uniform grid below m = 127 before its first march, any other
    grid never).  A factor writes the lower triangle of M + (k/2) K into a
    zero LAPACK lower band and factors it in place.

    ``record`` lists, in order, ("factor", k, None) per factor built,
    ("band", k, None) per banded solve and ("pcg", k, n) per PCG solve of n
    CG iterations (None when a non-finite rhs skips CG); a solve that fails
    after CG is recorded before it raises.
    """

    def __init__(self, M_h, K_h):
        self.n = M_h.shape[0]
        self._M, self._K = M_h, K_h
        m = math.isqrt(self.n)
        o, h = (m + 1) // 2, m // 2
        # modes in parity order, odd then even, padded to o by mode 1: the
        # padded symbol entries repeat real ones, so max(symbol), the
        # guard's norm estimate, is taken over the real modes
        j = np.ones((2, o), dtype=int)
        j[0], j[1, :h] = np.arange(1, m + 1, 2), np.arange(2, m + 1, 2)
        c = np.cos(j * np.pi / (m + 1))
        cp, cq = c[:, None, :, None], c[None, :, None, :]
        w = 1.0 / (12.0 * (m + 1) ** 2)
        self._mass_symbol = w * (6.0 + 2.0 * cp + 2.0 * cq + 2.0 * cp * cq)
        self._stiffness_symbol = (2.0 - 2.0 * cp) + (2.0 - 2.0 * cq)
        # F[a] = S[modes a, first o nodes], sine arguments reduced modulo
        # 2 pi in integers; F_E's padding row and column are exact zeros
        q = np.arange(1, o + 1)
        self._F = math.sqrt(2.0 / (m + 1)) * np.sin(
            j[:, :, None] * q % (2 * m + 2) * np.pi / (m + 1))
        self._F[1, h:], self._F[1, :, h:] = 0.0, 0.0
        self._FT = self._F.transpose(0, 2, 1).copy()
        U = np.eye(m, k=-1)                 # the 1-D shift, U[i, i-1] = 1
        self._A = math.sqrt(2.0 * w) * self._turn_in(
            0.5 * (U - U.T))[[0, 1], [1, 0]]     # A[odd, even], A[even, odd]
        self._band = m < _BAND_BELOW_M
        self._k = math.nan      # the live factor's step size, NaN for none
        self._factor = None
        self.record = []

    def get(self, k):
        """Lower Cholesky band of M + (k/2) K; the live one if k agrees."""
        if not self._live(k):
            self._factor = None          # release the old factor first
            low = sp.tril(self._M + 0.5 * float(k) * self._K).tocoo()
            offset = low.row - low.col
            band = np.zeros((offset.max(initial=0) + 1, self.n),
                            order="F")      # LAPACK layout: factored in place
            band[offset, low.col] = low.data
            self._factor = cholesky_banded(band, overwrite_ab=True,
                                           lower=True, check_finite=False)
            self._k = float(k)
            self.record.append(("factor", float(k), None))
        return self._factor

    def solve(self, k, rhs, x0, xhat0=None):
        """Solve (M + (k/2) K) x = rhs for step size k; may overwrite rhs.
        By the band if k's factor is alive, else by PCG from the guess x0,
        or from its DST-I coefficients ``xhat0`` when given.  Returns (x,
        M x, K x, x^), x^ being x's DST-I coefficients in parity blocks
        after a PCG solve and None after a banded one."""
        if not self._live(k):
            return self._pcg(float(k), rhs, x0, xhat0)
        x, info = dpbtrs(self._factor, rhs, lower=1, overwrite_b=1)
        self.record.append(("band", float(k), None))
        if info:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        return x, self._M @ x, self._K @ x, None

    def _live(self, k):
        """Whether step size k agrees with the live factor's."""
        if not 0.0 <= k < np.inf:
            raise np.linalg.LinAlgError(
                f"step size must be finite and non-negative, got {k}")
        return _same_step(k, self._k)

    def _turn_in(self, X):
        """The (m, m) grid X's DST-I coefficients S X S in parity blocks:
        fold rows and columns into sums and differences of mirror nodes,
        then one batched product with F on each side."""
        m, o, h = len(X), self._F.shape[1], len(X) // 2
        T = np.empty((2, o, m))
        np.add(X[:h], X[::-1][:h], out=T[0, :h])
        T[0, h:] = X[h:o]                 # the middle row of an odd m
        np.subtract(X[:o], X[::-1][:o], out=T[1])
        W = np.empty((2, 2, o, o))
        np.add(T[..., :h], T[..., ::-1][..., :h], out=W[:, 0, :, :h])
        W[:, 0, :, h:] = T[..., h:o]
        np.subtract(T[..., :o], T[..., ::-1][..., :o], out=W[:, 1])
        return self._F[:, None] @ W @ self._FT[None]

    def _turn_out(self, Y):
        """The grid S Y S, raveled, of parity blocks Y: the inverse of
        _turn_in, whose folds it undoes after the transposed products."""
        Z = self._FT[:, None] @ Y @ self._F[None]
        o, h = Z.shape[-1], math.isqrt(self.n) // 2
        # an odd m's middle node is taken from the sum, where the even
        # modes' zero padding adds nothing
        T = np.concatenate([Z[:, 0] + Z[:, 1],
                            (Z[:, 0] - Z[:, 1])[..., ::-1][..., o - h:]],
                           axis=-1)
        X = np.concatenate([T[0] + T[1], (T[0] - T[1])[::-1][o - h:]])
        return X.ravel()

    def _pcg(self, k, rhs, x0, xhat0):
        """CG on S (M + (k/2) K) S, preconditioned by 1/symbol, to relative
        residual 1e-14 in at most 100 iterations.  S is orthogonal, so this
        is CG on M + (k/2) K under the separable solve, turned.  A zero
        right-hand side gives zeros, a non-finite one NaN for x, M x and K
        x at once.  CG never multiplies by the cache's M and K, so one true
        residual r through them checks x: it raises LinAlgError unless the
        backward error ||r|| / (||rhs|| + ||M + (k/2) K|| ||x||) is at most
        1e-12, as on a grid that is not square or where r is NaN.  A bound
        on ||r|| / ||rhs|| alone would fail correct solves, since rounding x
        costs ||M + (k/2) K|| ||x|| eps, which is thousands of times eps
        ||rhs|| on fine meshes.  Returns (x, M x, K x, x^), the products
        those of the check, x^ the DST-I coefficients CG solved for, in
        parity blocks, which CG's unknowns keep from the turn in to the
        turn out."""
        m = math.isqrt(self.n)
        if m * m != self.n:
            raise np.linalg.LinAlgError(
                f"step PCG needs an m x m grid of nodes, got n={self.n}")
        if not np.all(np.isfinite(rhs)):
            self.record.append(("pcg", k, None))
            nan = np.full_like(rhs, np.nan)
            return nan, nan, nan, None
        symbol = self._mass_symbol + 0.5 * k * self._stiffness_symbol
        L, R = self._A[:, None], self._A[::-1][None]
        b = self._turn_in(np.reshape(rhs, (m, m)))
        tol = 1e-14 * np.linalg.norm(b)
        if not tol:
            y = np.zeros_like(b)
        elif xhat0 is None:
            y = self._turn_in(np.reshape(x0, (m, m)))
        else:
            y = xhat0.copy()
        its = _cg(lambda v: symbol * v - L @ v[::-1, ::-1] @ R,
                  1.0 / symbol, b, y, tol)
        self.record.append(("pcg", k, its))
        if its == 100:
            raise np.linalg.LinAlgError(
                f"step CG stopped at info={its} before rtol 1e-14")
        x = self._turn_out(y)
        Mx, Kx = self._M @ x, self._K @ x
        # normwise backward error: max(symbol) is ||M + (k/2) K|| to 1%
        residual = np.linalg.norm(rhs - (Mx + 0.5 * k * Kx))
        scale = (np.linalg.norm(rhs)
                 + symbol.max(initial=0.0) * np.linalg.norm(x))
        if not residual <= 1e-12 * scale:
            raise np.linalg.LinAlgError(
                f"step PCG residual {residual / scale:.1e} in backward "
                "error, above 1e-12: M + (k/2) K is not the mesh's")
        return x, Mx, Kx, y


class NonFiniteSweepError(ArithmeticError):
    """A time sweep produced a non-finite value; ``step`` is the first
    such step, counted from 1 in the order of the march."""

    def __init__(self, step):
        super().__init__(f"non-finite value at step {step} of a time sweep")
        self.step = step


def cn_march(cache, x, k_explicit, k_implicit, loads, out):
    """Crank-Nicolson march: out[i] = x <- (M + k_i/2 K)^-1 ((M - k'_i/2 K)
    x + l_i) for each load l_i, with k'_i = k_explicit[i] and k_i =
    k_implicit[i], solved by the StepMatrixCache ``cache``.  Each
    right-hand side is formed from the M x and K x the previous solve
    returned, and a PCG solve starts from the previous value or its DST-I
    coefficients; the march picks the band as StepMatrixCache says.
    Writing into the caller's field avoids a copy of it.  Returns (M x, K
    x) of the last value.  Raises NonFiniteSweepError if any value written
    is not finite."""
    if cache._band and len(loads) > 1 and _one_step_size(k_implicit):
        cache.get(k_implicit[0])
    Mx, Kx, xhat = cache._M @ x, cache._K @ x, None
    for i, load in enumerate(loads):
        rhs = Mx + (-0.5 * k_explicit[i]) * Kx + load
        x, Mx, Kx, xhat = cache.solve(k_implicit[i], rhs, x, xhat)
        out[i] = x
    finite = np.isfinite(out[:len(loads)]).all(axis=1)
    if not finite.all():
        raise NonFiniteSweepError(int(np.argmin(finite)) + 1)
    return Mx, Kx


def march_state(cache, grid, mom, MG, y0):
    """March the damped scheme forward under the loads F_j = sum_i (mom[i,
    j, 0] + mom[i, j-1, 1]) MG[i].  The terminal row holds the right-hand
    side of the terminal mass solve: sweeps read interval values only."""
    F = (np.pad(mom[..., 0], ((0, 0), (0, 1)))
         + np.pad(mom[..., 1], ((0, 0), (1, 0)))).T @ MG
    k = grid.k
    alphas = np.empty_like(F)
    Mx, Kx = cn_march(cache, np.asarray(y0, dtype=float),
                      np.concatenate([[0.0], k[:-1]]), k, F[:-1], alphas)
    alphas[-1] = Mx + (-0.5 * k[-1]) * Kx + F[-1]
    return PiecewiseConstantField(grid, alphas)


def terminal_solve(cache, y):
    """Complete a march_state field in place by the k = 0 solve of the
    StepMatrixCache ``cache``, from the last interval value; a non-finite
    terminal value (step M+1) raises NonFiniteSweepError."""
    v = y.values
    v[-1] = cache.solve(0.0, v[-1], v[-2])[0]
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
