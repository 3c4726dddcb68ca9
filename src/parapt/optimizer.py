"""Fixed-point solution of the discrete optimality system.

Each sweep solves the state equation for the current control, solves the
adjoint equation driven by the tracking misfit, and replaces the control
by the exact clamp of -(1/alpha) times the adjoint pairing.  The sweep is
a contraction for the regularizations considered here, and the iteration
stops once the adjoint pairing moves by at most the threshold in the
maximum norm over grid nodes and components.  Because the stopping test
compares consecutive pairings, the count never drops below two sweeps.
"""

from dataclasses import dataclass, field

import numpy as np

from .adjoint import march_adjoint
from .control import clamp_control, constant_control, control_to_rhs_terms
from .fem import interpolate
from .state import (NonFiniteSweepError, StepMatrixCache, discretize_terms,
                    march_state, mass_rows, separable_sq_norm, term_moments,
                    terminal_solve)


class FixedPointError(RuntimeError):
    """Iteration budget exhausted or a non-finite criterion; carries the
    partial report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass
class SolveReport:
    control: object          # ClampedLinearControl
    state: object            # PiecewiseConstantField
    adjoint: object          # PiecewiseLinearField
    iterations: int
    final_criterion: float
    converged: bool
    objective: float
    objective_history: list = field(default_factory=list)


def _tracking_misfit_sq(Y, MY, grid, target):
    """Integral over (0,T) of ||y_k(t) - y_d(t)||^2 in L2(Omega) from the
    interval values Y, their rows M y and ``target``: the target's squared
    norm, its (terms, M) interval integrals and its (terms, n) rows M g.

    Exact in the piecewise-constant factor, 5-point Gauss in the smooth
    target factors.
    """
    sq, ints, MG = target
    return max(sq + float(grid.k @ np.einsum("mi,mi->m", Y, MY))
               - 2.0 * float(np.sum(ints.T * (Y @ MG.T))), 0.0)


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


def fixed_point_solve(dp, grid, threshold=1e-5, max_iters=100, u_init=None):
    """Run the clamp fixed-point iteration on one time grid.

    ``dp`` is a DiscreteProblem.  The initial control defaults to the
    constant lower bound.  Returns a SolveReport; raises FixedPointError
    (with the partial report attached) when max_iters sweeps do not meet
    the threshold, at the first sweep whose criterion is not finite, or
    when a time sweep produces a non-finite value.
    A negative or non-finite threshold raises ValueError.
    """
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be non-negative and finite, "
                         f"got {threshold}")
    M_h, D = dp.M_h, len(dp.shapes)
    cache = StepMatrixCache(M_h, dp.K_h)
    u = u_init if u_init is not None else constant_control(
        grid, dp.box.lower, dp.box)
    MG = mass_rows(M_h, [*dp.shapes, *(t.spatial for t in dp.source_terms)])
    source_mom = term_moments(dp.source_terms, grid)
    target = (separable_sq_norm(dp.yd_terms, M_h, grid),
              term_moments(dp.yd_terms, grid).sum(axis=2),
              mass_rows(M_h, [t.spatial for t in dp.yd_terms]))
    y_k = p_k = w_old = None
    crit = np.nan
    history = []

    def finish(sweep, failure=None):
        """The report, its state completed here; raises FixedPointError."""
        try:
            if y_k is not None:
                terminal_solve(cache, y_k)
        except NonFiniteSweepError as exc:
            failure = failure or f"{exc} after fixed-point sweep {sweep}"
        rep = SolveReport(u, y_k, p_k, sweep, crit, failure is None,
                          history[-1] if history else np.nan, history)
        if failure:
            raise FixedPointError(failure, rep)
        return rep

    for sweep in range(1, max_iters + 1):
        mom = term_moments(control_to_rhs_terms(u, dp.shapes), grid)
        try:
            y_k = march_state(cache, grid, np.concatenate([mom, source_mom]),
                              MG, dp.y0)
            Y = y_k.values[:grid.M]
            H = (M_h @ Y.T).T                     # rows M y, then the loads
            misfit = _tracking_misfit_sq(Y, H, grid, target)
            H *= grid.k[:, None]
            H += target[1].T @ -target[2]
            p_k = march_adjoint(cache, grid, H)
        except NonFiniteSweepError as exc:
            return finish(sweep, f"{exc} in fixed-point sweep {sweep}")
        w = (p_k.values @ MG[:D].T).T
        history.append(0.5 * misfit + 0.5 * dp.alpha * u.squared_l2())
        crit = np.inf if w_old is None else float(
            np.max(np.abs(w - w_old), initial=0.0))
        u = clamp_control(grid.t, -w / dp.alpha, dp.box)
        if crit <= threshold:
            return finish(sweep)
        if w_old is not None and not np.isfinite(crit):
            return finish(sweep,
                          f"non-finite criterion {crit} at sweep {sweep}")
        w_old = w
    return finish(max_iters, f"no convergence in {max_iters} sweeps "
                  f"(last criterion {crit:.3e}, threshold {threshold:.1e})")
