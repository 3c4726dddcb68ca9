"""Fixed-point solution of the discrete optimality system.

Each sweep maps the control to its adjoint pairing w_i = M g_i . beta, the
adjoint of the control's state marched under the tracking misfit, and
replaces the control by the exact clamp of -(1/alpha) w.  The sweep is a
contraction for the regularizations considered here, and the iteration
stops once the pairing moves by at most the threshold in the maximum norm
over grid nodes and components.  Because the stopping test compares
consecutive pairings, the count never drops below two sweeps.

A level marches the state and the adjoint in every sweep unless D >= 1,
its grid is of one step size (state._one_step_size; every uniform grid
is) and every source profile and y0 lies in the span of the g_i.  Then
each step has T = M + (k/2) K and E = M - (k/2) K, and every load is
c_ij M g_i at a step j = 0..M-1: the control's weight mom[i, j, 0] +
mom[i, j-1, 1] plus the source's and y0's (the load M y0 at step 0) by
their least-squares coefficients.  So

    a_m = sum_i sum_{j<=m} c_ij R_i[m-j],
    R_i[d] = (T^-1 E)^d T^-1 M g_i,

R_i the state of a unit load at step 0.  The adjoint march, beta_M = 0
and T beta_m = E beta_{m+1} + H_m, pairs through the same responses, as
(T^-1 E)^d T^-1 is symmetric: w_i(m) = sum_{l>=m} R_i[l-m] . H_l, and
w(M) = 0.  Its loads H_l = k M a_l + h_l are linear in c, so

    w = w^f + G c,
    w^f_i(m) = -sum_t sum_{l>=m} ints[t, l] R_i[l-m] . M y_t,
    G_i'i(m, j) = k sum_{l>=max(m, j)} (M R_i'[l-m]) . R_i[l-j]
                = C_i'i[|m-j|] - C_i'i[2M-m-j],
    C_i'i[s] = k sum_{t>=0} rho_i'i[s+2t],  rho_i'i[a+b] = R_i'[a] . M R_i[b],

w^f the pairing of the target y_d = sum_t theta_t y_t alone, ints[t, l]
the integral of theta_t over I_l, the moments rho_i'i[s], s = 0..2M-2
and 0 past it, well defined as M (T^-1 E)^d is symmetric, and the misfit
||y_d||^2 + sum c . (w^f + w).  A solve first marches D times, sweeps by two
correlations of C_i'i with c_i per (i', i), and at the last sweep's c sums
a by row blocks of Toep(c_i), the lower-triangular Toeplitz matrix of
c_i, and marches its adjoint once.
"""

from dataclasses import dataclass, field

import numpy as np

from .adjoint import march_adjoint
from .control import clamp_control, constant_control, control_to_rhs_terms
from .fem import interpolate
from .state import (NonFiniteSweepError, StepMatrixCache, _one_step_size,
                    discretize_terms, march_state, mass_rows,
                    separable_sq_norm, term_moments, terminal_solve)
from .timegrid import PiecewiseConstantField


class FixedPointError(RuntimeError):
    """Iteration budget exhausted or a non-finite criterion; carries the
    partial report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass
class SolveReport:
    """Outcome of fixed_point_solve.  ``record`` is its StepMatrixCache's
    record: every factor and step solve, the k = 0 terminal solve too."""
    control: object          # ClampedLinearControl
    state: object            # PiecewiseConstantField
    adjoint: object          # PiecewiseLinearField
    iterations: int
    final_criterion: float
    converged: bool
    objective: float
    objective_history: list = field(default_factory=list)
    record: list = field(default_factory=list)  # StepMatrixCache.record


def _adjoint_loads(Y, M_h, grid, target):
    """The adjoint's interval loads k M y + h of the interval values Y, h
    the target's, and the integral over (0,T) of ||y_k(t) - y_d(t)||^2 in
    L2(Omega).  ``target`` holds the target's squared norm, its (terms, M)
    interval integrals and its (terms, n) rows M g.

    The misfit is exact in the piecewise-constant factor, 5-point Gauss in
    the smooth target factors; not floored at 0, so it may round below.
    """
    sq, ints, MG = target
    H = (M_h @ Y.T).T                             # rows M y, then the loads
    misfit = (sq + float(grid.k @ np.einsum("mi,mi->m", Y, H))
              - 2.0 * float(np.sum(ints.T * (Y @ MG.T))))
    H *= grid.k[:, None]
    H -= ints.T @ MG
    return H, misfit


@dataclass
class DiscreteProblem:
    """Mesh-resolved problem data shared by all fixed-point sweeps.  The
    constructor raises ValueError on inconsistent sizes or a bad alpha."""
    M_h: object
    K_h: object
    alpha: float
    box: object
    shapes: list             # interior coefficients of the g_i
    y0: np.ndarray
    source_terms: list       # RhsTerm list for the control-independent load
    yd_terms: list           # RhsTerm list for the tracking target

    def __post_init__(self):
        n = self.M_h.shape[0]
        terms = [*self.source_terms, *self.yd_terms]
        vectors = [self.y0, *self.shapes, *(t.spatial for t in terms)]
        if not (self.M_h.shape == self.K_h.shape == (n, n)
                and all(np.shape(v) == (n,) for v in vectors)):
            raise ValueError(f"M_h {self.M_h.shape} and K_h {self.K_h.shape} "
                             f"must be square of one size n, and y0, shapes "
                             f"and term profiles of length n")
        if len(self.shapes) != self.box.dim:
            raise ValueError(f"{len(self.shapes)} control shapes for a "
                             f"{self.box.dim}-component admissible box")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, "
                             f"got {self.alpha}")


def discretize_problem(problem, mesh, M_h, K_h):
    """Interpolate all spatial profiles of a ProblemSpec once."""
    shapes = [interpolate(mesh, g) for g in problem.g]
    y0 = interpolate(mesh, problem.y0)
    source_terms = discretize_terms(mesh, problem.g0)
    yd_terms = discretize_terms(mesh, problem.y_d)
    return DiscreteProblem(M_h, K_h, problem.alpha, problem.uad, shapes, y0,
                           source_terms, yd_terms)


def _span_coefficients(dp):
    """Least-squares coefficients of the source profiles and y0 on finite
    shapes; None unless each remainder is within 1e-13 of its row in norm."""
    if not np.isfinite(dp.shapes).all():    # pinv raises; marches report it
        return None
    P = np.array([*(t.spatial for t in dp.source_terms), dp.y0])
    L = P @ np.linalg.pinv(dp.shapes)
    return L if (((P - L @ dp.shapes) ** 2).sum(1)
                 <= 1e-26 * (P ** 2).sum(1)).all() else None


def _reduced_map(cache, grid, dp, MG, source_mom, target, L):
    """(pairing, state) of the control whose hat moments are mom, by the
    module docstring's reduced map, L the source profiles' and y0's
    coefficients on the shapes: pairing -> (w, misfit), and state -> y_k as
    march_state leaves it.  Marches D times to set up; keeps R and C."""
    M, n, D = grid.M, dp.M_h.shape[0], len(dp.shapes)
    unit = np.eye(1, 2 * M).reshape(1, M, 2)    # a unit load at step 0
    R = np.empty((D, M, n))             # reversed: R[i, M-1-d] = R_i[d]
    for i in range(D):
        R[i, ::-1] = march_state(cache, grid, unit, MG[i:i + 1],
                                 np.zeros(n)).values[:M]
    fm = np.concatenate([source_mom, unit])     # y0: the load M y0 at 0
    c0 = L.T @ (fm[..., 0] + np.pad(fm[:, :-1, 1], ((0, 0), (1, 0))))
    sq, ints, MG_yd = target
    Q = R @ MG_yd.T                     # Q[i, M-1-d, t] = R_i[d] . M y_t
    wf = np.zeros((D, M + 1))           # w^f, one correlation per (i, t)
    for i, t in np.ndindex(D, len(ints)):
        wf[i, :M] -= np.convolve(ints[t], Q[i, :, t])[M - 1:]
    MR = (dp.M_h @ R.reshape(D * M, n).T).T.reshape(D, M, n)
    # the reversed rows give rho by falling s, so its cumsums are C, reversed
    rho = np.zeros((D, D, M + 1, 2))    # rho[2M-2 - 2p - q] at [..., p + 1, q]
    rho[:, :, 1:, 0] = np.einsum("ian,jan->ija", R, MR)
    rho[:, :, 1:-1, 1] = np.einsum("ian,jan->ija", R[:, 1:], MR[:, :-1])
    C = grid.k[0] * np.cumsum(rho, 2).reshape(D, D, -1)[..., 2 * M::-1]
    toeplitz = np.concatenate([C[..., M - 1:0:-1], C[..., :M]], axis=-1)

    def pairing(mom):
        c = mom[..., 0] + np.pad(mom[:, :-1, 1], ((0, 0), (1, 0))) + c0
        w = wf.copy()                   # G has no row for w(M) = 0
        for i_, i in np.ndindex(D, D):  # C[|m - j|] c[j], less C[2M - m - j]
            w[i_, :M] += (np.correlate(toeplitz[i_, i], c[i, ::-1], "valid")
                          - np.correlate(C[i_, i, 2 * M:1:-1], c[i], "valid"))
        return w, sq + float(np.vdot(c, (wf + w)[:, :M]))

    def state(mom):                     # row m of Toep(c_i) is W[i, m, ::-1]
        a, W = np.zeros((M + 1, n)), np.lib.stride_tricks.sliding_window_view(
            np.pad(mom[..., 0] + c0, ((0, 0), (M - 1, 0)))   # M - 1 zeros
            + np.pad(mom[:, :-1, 1], ((0, 0), (M, 0))), M, axis=1)
        for m0 in range(0, M, 128):     # rows m0..m1-1 reach R[:, M-m1:]
            m1 = min(m0 + 128, M)       # each block copied, one BLAS call
            a[m0:m1] += (W[:, m0:m1, M - m1:].copy() @ R[:, M - m1:]).sum(0)
        finite = np.isfinite(a[:M]).all(axis=1)
        if not finite.all():
            raise NonFiniteSweepError(int(np.argmin(finite)) + 1)
        a[M] = (dp.M_h @ a[M - 1] + (-0.5 * grid.k[-1]) * (dp.K_h @ a[M - 1])
                + np.concatenate([mom, source_mom])[:, -1, 1] @ MG)
        return PiecewiseConstantField(grid, a)
    return pairing, state


def fixed_point_solve(dp, grid, threshold=1e-5, max_iters=100, u_init=None):
    """Run the clamp fixed-point iteration on one time grid.

    ``dp`` is a DiscreteProblem.  The initial control defaults to the
    constant lower bound, or the upper one where the lower is infinite, or
    0 where both are.  Returns a SolveReport; raises FixedPointError (with
    the partial report attached) when max_iters sweeps do not meet the
    threshold, at the first sweep whose criterion is not finite, or when a
    time sweep produces a non-finite value.  Before any step solve,
    ValueError rejects a negative or non-finite threshold, a max_iters that
    is not an integer of at least 1, and a u_init without D components or
    whose breakpoints do not run from 0 to grid.T.

    Where the module docstring's reduced map applies, the sweeps take
    (D + 1) M step solves and the terminal one, whatever their number.
    Any other level marches the state and the adjoint in each of its S
    sweeps: 2 S M step solves and the terminal one.  Without a control
    component (D = 0) the first sweep's marches serve the second: 2 M and
    the terminal one.
    """
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be non-negative and finite, "
                         f"got {threshold}")
    if not (isinstance(max_iters, (int, np.integer)) and max_iters >= 1):
        raise ValueError(f"max_iters must be an integer of at least 1, "
                         f"got {max_iters!r}")
    M_h, D, bounds = dp.M_h, len(dp.shapes), [dp.box.lower, dp.box.upper]
    u = u_init if u_init is not None else constant_control(
        grid, np.select(np.isfinite(bounds), bounds), dp.box)
    spans = [[float(b[0]), float(b[-1])] for b in u.breaks]
    if spans != [[0.0, grid.T]] * D:
        raise ValueError(f"u_init must have {D} components with breakpoints "
                         f"from 0 to T = {grid.T}, got {spans}")
    cache = StepMatrixCache(M_h, dp.K_h)
    MG = mass_rows(M_h, [*dp.shapes, *(t.spatial for t in dp.source_terms)])
    source_mom = term_moments(dp.source_terms, grid)
    target = (separable_sq_norm(dp.yd_terms, M_h, grid),
              term_moments(dp.yd_terms, grid).sum(axis=2),
              mass_rows(M_h, [t.spatial for t in dp.yd_terms]))
    fields = [None, None]   # y_k and p_k, as the last march left them

    def march(mom, y=None):
        """March y_k, unless given as ``y``, at the hat moments ``mom`` and
        p_k from it into ``fields``; returns the pairing and y_k's misfit."""
        fields[0] = y if y is not None else march_state(
            cache, grid, np.concatenate([mom, source_mom]), MG, dp.y0)
        H, misfit = _adjoint_loads(fields[0].values[:grid.M], M_h, grid,
                                   target)
        fields[1] = march_adjoint(cache, grid, H)
        return (fields[1].values @ MG[:D].T).T, misfit

    L = _span_coefficients(dp) if D and _one_step_size(grid.k) else None
    sweep, crit, history = 1, np.nan, []
    w_old = mom = failure = None
    try:
        pairing, state = (march, None) if L is None else _reduced_map(
            cache, grid, dp, MG, source_mom, target, L)
        for sweep in range(1, max_iters + 1):
            mom = term_moments(control_to_rhs_terms(u, dp.shapes), grid)
            w, misfit = pairing(mom) if D or sweep == 1 else (w, misfit)
            history.append(0.5 * max(misfit, 0.0)
                           + 0.5 * dp.alpha * u.squared_l2())
            crit = np.inf if w_old is None else float(
                np.max(np.abs(w - w_old), initial=0.0))
            u = clamp_control(grid.t, -w / dp.alpha, dp.box)
            if crit <= threshold:
                break
            if w_old is not None and not np.isfinite(crit):
                failure = f"non-finite criterion {crit} at sweep {sweep}"
                break
            w_old = w
        else:
            failure = (f"no convergence in {max_iters} sweeps (last criterion "
                       f"{crit:.3e}, threshold {threshold:.1e})")
    except NonFiniteSweepError as exc:
        failure = f"{exc} in fixed-point sweep {sweep}"
    try:                    # the reported fields, at the last sweep's control
        if L is not None and mom is not None:
            y, pairing, state = state(mom), None, None  # drop R_i and C
            march(mom, y)
        if fields[0] is not None:
            terminal_solve(cache, fields[0])
    except NonFiniteSweepError as exc:
        failure = failure or f"{exc} after fixed-point sweep {sweep}"
    rep = SolveReport(u, *fields, sweep, crit, failure is None,
                      history[-1] if history else np.nan, history,
                      cache.record)
    if failure:
        raise FixedPointError(failure, rep)
    return rep
