"""Fixed-point solution of the discrete optimality system.

Each sweep solves the state equation for the current control, solves the
adjoint equation driven by the tracking misfit, and replaces the control
by the exact clamp of -(1/alpha) times the adjoint pairing.  The sweep is
a contraction for the regularizations considered here, and the iteration
stops once the adjoint pairing moves less than the threshold in the
maximum norm over grid nodes and components.  Because the stopping test
compares consecutive pairings, the count never drops below two sweeps.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .adjoint import solve_adjoint
from .control import (apply_B_adjoint, clamp_control, constant_control,
                      control_to_rhs_terms)
from .fem import interpolate, l2_sq_rows
from .state import (NonFiniteSweepError, StepMatrixCache, discretize_terms,
                    hat_moments, separable_sq_norm, solve_state)


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


def _tracking_misfit_sq(y_k, yd_terms, M_h, grid):
    """Integral over (0,T) of ||y_k(t) - y_d(t)||^2 in L2(Omega).

    Exact in the piecewise-constant factor, 5-point Gauss in the smooth
    target factors.
    """
    Y = y_k.values[:grid.M]
    total = separable_sq_norm(yd_terms, M_h, grid) + float(
        grid.k @ l2_sq_rows(M_h, Y))
    if yd_terms:
        G = np.column_stack([t.spatial for t in yd_terms])
        th_ints = np.array([hat_moments(t, grid).sum(axis=1)
                            for t in yd_terms])          # (terms, M)
        total -= 2.0 * float(np.sum(G * (M_h @ (Y.T @ th_ints.T))))
    return max(total, 0.0)


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
    cache = StepMatrixCache(dp.M_h, dp.K_h)
    u = u_init if u_init is not None else constant_control(
        grid, dp.box.lower, dp.box)
    neg_yd = [replace(t, spatial=-t.spatial) for t in dp.yd_terms]
    y_k = p_k = w_old = None
    crit = np.nan
    history = []

    def report(sweep, converged):
        return SolveReport(u, y_k, p_k, sweep, crit, converged,
                           history[-1] if history else np.nan, history)

    for sweep in range(1, max_iters + 1):
        terms = control_to_rhs_terms(u, dp.shapes) + dp.source_terms
        try:
            y_k = solve_state(dp.M_h, dp.K_h, grid, terms, dp.y0,
                              cache=cache)
            p_k = solve_adjoint(dp.M_h, dp.K_h, grid, pc_part=y_k,
                                terms=neg_yd, cache=cache)
        except NonFiniteSweepError as exc:
            raise FixedPointError(f"{exc} in fixed-point sweep {sweep}",
                                  report(sweep, False)) from exc
        w = apply_B_adjoint(p_k, dp.shapes, dp.M_h)
        misfit = _tracking_misfit_sq(y_k, dp.yd_terms, dp.M_h, grid)
        history.append(0.5 * misfit + 0.5 * dp.alpha * u.squared_l2())
        crit = np.inf if w_old is None else float(np.max(np.abs(w - w_old)))
        u = clamp_control(grid.t, -w / dp.alpha, dp.box)
        if crit < threshold:
            return report(sweep, True)
        if w_old is not None and not np.isfinite(crit):
            raise FixedPointError(
                f"non-finite criterion {crit} at sweep {sweep}",
                report(sweep, False))
        w_old = w
    raise FixedPointError(
        f"no convergence in {max_iters} sweeps "
        f"(last criterion {crit:.3e}, threshold {threshold:.1e})",
        report(max_iters, False))
