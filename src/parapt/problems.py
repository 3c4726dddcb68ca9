"""Benchmark problems on the unit square with known exact solutions.

All data is separable: sums of theta(t) * sin(q pi x1) * sin(q pi x2).
Each problem is given by its optimal state and adjoint on one sine mode
q, as (y, y', p, p') in time; the load, the adjoint right-hand side, the
target, the clamped control and the initial state are derived from them
by one constructor.  The terms of the exact state and adjoint carry the
Laplacians of their profiles in closed form, so the state and adjoint
equations can be checked with central-difference time derivatives, and
clamp kinks of exact controls are located by bisection so quadrature can
split there.

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
    """theta(t) * profile(x1, x2) with a closed-form Laplacian."""
    theta: Callable
    profile: Callable
    lap_profile: Callable = None
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
    term = lambda theta, breaks=(): SeparableTerm(
        theta=theta, profile=g,
        lap_profile=lambda x1, x2: -lam * g(x1, x2), breaks=tuple(breaks))

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


def _eval_terms(terms, ts, X, Y, use_lap=False):
    out = np.zeros((len(ts), X.size))
    for term in terms:
        pr = term.lap_profile if use_lap else term.profile
        out += (np.asarray(term.theta(ts), dtype=float)[:, None]
                * np.asarray(pr(X, Y), dtype=float).ravel()[None, :])
    return out


def self_test(problem):
    """Relative strong residuals of the state and adjoint equations.

    At 50 times and 3 x 3 points, y' - Laplace y - f and
    -p' - Laplace p - h, each divided by the largest |f| or |h| over the
    samples.  The time derivatives are central differences of the exact
    terms (step 1e-6 T), so a wrong y' or p' in the problem data shows.
    Raises AssertionError above 1e-8.
    """
    if problem.exact is None:
        raise ValueError("problem has no exact solution")
    ex = problem.exact
    ts = np.linspace(0.0, problem.T, 50)
    xs = np.array([0.25, 0.5, 0.75])
    X, Y = np.meshgrid(xs, xs)
    dt = 1e-6 * problem.T
    d_dt = lambda terms: (_eval_terms(terms, ts + dt, X, Y)
                          - _eval_terms(terms, ts - dt, X, Y)) / (2.0 * dt)

    f = _eval_terms(problem.g0, ts, X, Y)
    for i, g in enumerate(problem.g):
        f += (np.asarray(ex.u_funcs[i](ts), dtype=float)[:, None]
              * np.asarray(g(X, Y), dtype=float).ravel()[None, :])
    r_state = d_dt(ex.y) - _eval_terms(ex.y, ts, X, Y, use_lap=True) - f

    h = _eval_terms(ex.p_rhs, ts, X, Y)
    r_adj = -d_dt(ex.p) - _eval_terms(ex.p, ts, X, Y, use_lap=True) - h

    res = {"state": float(np.max(np.abs(r_state)) / np.max(np.abs(f))),
           "adjoint": float(np.max(np.abs(r_adj)) / np.max(np.abs(h)))}
    assert max(res.values()) < 1e-8, f"self-test residuals too large: {res}"
    return res
