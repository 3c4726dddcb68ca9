"""Benchmark problems on the unit square with known exact solutions.

All data is separable: sums of theta(t) * sin(q pi x1) * sin(q pi x2).
Each problem is given by its optimal state and adjoint on one sine mode
q, as (y, y', p, p') in time; the load, the adjoint right-hand side, the
target, the clamped control and the initial state are derived from them
by one constructor.  The self-test checks the state and adjoint equations
by differences of the exact terms, in time and in space, so a wrong y',
p' or eigenvalue in the data shows.  Clamp kinks of exact controls are
located by bisection so quadrature can split there.

Two control-constrained examples (a short-horizon exponential target and
an oscillatory one) plus a manufactured problem with no control component,
used for pure convergence studies.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .control import AdmissibleSet
from .quadrature import split_at


def sin_profile(p=1, q=1):
    return lambda x, y: np.sin(p * np.pi * x) * np.sin(q * np.pi * y)


@dataclass
class SeparableTerm:
    """theta(t) * profile(x1, x2)."""
    theta: Callable
    profile: Callable
    breaks: tuple = ()


@dataclass
class ExactSolution:
    u_funcs: list            # per component: clamped control, vectorized
    u_breaks: list           # per component: clamp crossing times
    y: list                  # SeparableTerm sum for the optimal state
    p: list                  # SeparableTerm sum for the optimal adjoint
    p_rhs: list              # SeparableTerm sum driving the adjoint equation


@dataclass
class ProblemSpec:
    name: str
    T: float
    alpha: float
    uad: AdmissibleSet
    g: list                  # control shape functions (x1, x2) -> value
    g0: list                 # SeparableTerm list, control-independent load
    y0: Callable
    y_d: list                # SeparableTerm list, tracking target
    exact: ExactSolution = None

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, "
                             f"got {self.alpha}")


def find_crossings(arg, lo, hi, T):
    """Times in (0, T) where a smooth vectorized function meets either bound.

    Every sign change of a 4001-point scan is bisected 64 times at once,
    which leaves its bracket [a, b] at adjacent floats.
    """
    ts = np.linspace(0.0, T, 4001)
    bounds = np.array([lo, hi])
    fv = np.asarray(arg(ts), dtype=float) - bounds[:, None]
    i, j = np.nonzero(fv[:, :-1] * fv[:, 1:] < 0.0)
    a, b, bound, sign = ts[j], ts[j + 1], bounds[i], fv[i, j]
    for _ in range(64):
        mid = 0.5 * (a + b)
        past = (arg(mid) - bound) * sign > 0.0
        a, b = np.where(past, mid, a), np.where(past, b, mid)
    hits = ts[(fv == 0.0).any(axis=0)]
    return split_at([0.0, T], [*a, *hits], rel_tol=1e-12)[1:-1]


def _mode_problem(name, T, alpha, box, y, dy, p, dp, q=1):
    """Problem whose optimal state is y(t) g and optimal adjoint p(t) g.

    g = sin(q pi x1) sin(q pi x2) has -Laplace g = lam g with
    lam = 2 q^2 pi^2 and (g, g) = 1/4, so the optimality system gives the
    rest.  Every component of ``box`` has shape g and control
    u = clamp(-p / (4 alpha)); the load is f = y' + lam y minus each u, the
    adjoint right-hand side lam p - p', the target y_d = y + p' - lam p and
    the initial state y(0) g.
    """
    lam = 2.0 * q * q * np.pi**2
    g = sin_profile(q, q)
    term = lambda theta, breaks=(): SeparableTerm(theta, g, tuple(breaks))

    u_arg = lambda t: -p(t) / (4.0 * alpha)
    bounds = list(zip(box.lower.tolist(), box.upper.tolist()))
    u_funcs = [lambda t, lo=lo, hi=hi: np.clip(u_arg(t), lo, hi)
               for lo, hi in bounds]
    u_breaks = [find_crossings(u_arg, lo, hi, T) for lo, hi in bounds]
    y0 = float(y(0.0))

    exact = ExactSolution(
        u_funcs=u_funcs, u_breaks=u_breaks, y=[term(y)], p=[term(p)],
        p_rhs=[term(lambda t: lam * p(t) - dp(t))])
    return ProblemSpec(
        name=name, T=T, alpha=alpha, uad=box, g=[g] * box.dim,
        g0=[term(lambda t: dy(t) + lam * y(t))]
        + [term(lambda t, u=u: -u(t), breaks=b)
           for u, b in zip(u_funcs, u_breaks)],
        y0=lambda x1, x2: y0 * g(x1, x2),
        y_d=[term(lambda t: y(t) + dp(t) - lam * p(t))], exact=exact)


def example1():
    """Short horizon T = 0.1, strong regularization pull, one clamp kink.

    The optimal control follows a scaled exponential and saturates at the
    upper bound -1 near the end of the horizon.
    """
    a = -np.sqrt(5.0)
    T = 0.1
    E = lambda t: np.exp(a * np.pi**2 * np.asarray(t, dtype=float))
    ET = float(E(T))
    cy = -np.pi**2 / (2.0 + a)
    return _mode_problem(
        "example1", T, np.pi**-4, AdmissibleSet(-25.0, -1.0),
        y=lambda t: cy * E(t), dy=lambda t: cy * a * np.pi**2 * E(t),
        p=lambda t: E(t) - ET, dp=lambda t: a * np.pi**2 * E(t))


def example2():
    """Oscillatory problem on T = 0.5 with several active arcs."""
    a = 2.0
    T = 0.5
    om = 2.0 * np.pi * a / T
    c2pa = float(np.cos(2.0 * np.pi * a))
    c = lambda t: np.cos(om * np.asarray(t, dtype=float))
    ds = lambda t: -om * np.sin(om * np.asarray(t, dtype=float))
    return _mode_problem(
        "example2", T, 1.0, AdmissibleSet(0.2, 0.4),
        y=c, dy=ds, p=lambda t: c(t) - c2pa, dp=ds)


def manufactured_smooth(T=0.5, q=1):
    """Smooth problem with no control component, for pure state/adjoint
    convergence: y = exp(-t) and p = (T - t) exp(-t) on mode q."""
    ex = lambda t: np.exp(-np.asarray(t, dtype=float))
    return _mode_problem(
        "manufactured", T, 1.0, AdmissibleSet([], []),
        y=ex, dy=lambda t: -ex(t),
        p=lambda t: (T - np.asarray(t, dtype=float)) * ex(t),
        dp=lambda t: -(1.0 + T - np.asarray(t, dtype=float)) * ex(t), q=q)


def self_test(problem):
    """Relative strong residuals of the state and adjoint equations.

    At 50 times and 3 x 3 points, y' - Laplace y - f and
    -p' - Laplace p - h, each divided by the largest |f| or |h| over the
    samples.  Derivatives are differences of the exact terms: in time
    central (step 1e-6 T), in space the fourth-order 9-point Laplacian
    (step 1e-3).  So a wrong y' or p' in the problem data, or a profile
    off its eigenvalue, shows.  Raises AssertionError above 1e-8.
    """
    if problem.exact is None:
        raise ValueError("problem has no exact solution")
    ex = problem.exact
    ts = np.linspace(0.0, problem.T, 50)
    X, Y = np.meshgrid([0.25, 0.5, 0.75], [0.25, 0.5, 0.75])
    dt, h = 1e-6 * problem.T, 1e-3
    taps = ((0.0, -30.0), (h, 16.0), (-h, 16.0), (2 * h, -1.0), (-2 * h, -1.0))

    def at(terms, t, dx=0.0, dy=0.0):
        return sum(np.asarray(s.theta(t), dtype=float)[:, None]
                   * np.asarray(s.profile(X + dx, Y + dy), dtype=float).ravel()
                   for s in terms)

    def residual(sol, rhs, sign):
        """sign sol' - Laplace sol - rhs, over max |rhs|."""
        lap = sum(w * (at(sol, ts, d) + at(sol, ts, 0.0, d)) for d, w in taps)
        rhs = at(rhs, ts)
        r = (sign * (at(sol, ts + dt) - at(sol, ts - dt)) / (2.0 * dt)
             - lap / (12.0 * h * h) - rhs)
        return float(np.max(np.abs(r)) / np.max(np.abs(rhs)))

    controls = [SeparableTerm(u, g) for u, g in zip(ex.u_funcs, problem.g)]
    res = {"state": residual(ex.y, problem.g0 + controls, 1.0),
           "adjoint": residual(ex.p, ex.p_rhs, -1.0)}
    assert max(res.values()) < 1e-8, f"self-test residuals too large: {res}"
    return res
