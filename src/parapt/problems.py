"""Benchmark problems on the unit square with known exact solutions.

All data is separable: sums of theta(t) * sin(q pi x1) * sin(q pi x2).
Each problem is given by its optimal state and adjoint on one sine mode
q, as (y, y', p, p') in time; the load, the adjoint right-hand side, the
target, the clamped control and the initial state are derived from them
by one constructor.  The terms of the exact state and adjoint carry their
temporal derivatives and the Laplacians of their profiles in closed form,
so strong residuals of the optimality system can be checked to roundoff,
and clamp kinks of exact controls are located by root finding so
quadrature can split there.

Two control-constrained examples (a short-horizon exponential target and
an oscillatory one) plus a manufactured problem with no control component,
used for pure convergence studies.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .control import AdmissibleSet
from .quadrature import split_at


def sin_profile(p=1, q=1):
    return lambda x, y: np.sin(p * np.pi * x) * np.sin(q * np.pi * y)


@dataclass
class SeparableTerm:
    """theta(t) * profile(x1, x2) with closed-form derivatives."""
    theta: Callable
    profile: Callable
    dtheta: Callable = None
    lap_profile: Callable = None
    breaks: tuple = ()


@dataclass
class ExactSolution:
    u_funcs: list            # per component: clamped control, vectorized
    u_breaks: list           # per component: clamp crossing times
    y: list                  # SeparableTerm sum for the optimal state
    p: list                  # SeparableTerm sum for the optimal adjoint
    p_rhs: list              # SeparableTerm sum driving the adjoint equation
    pairing: Callable = None  # t -> (D,) closed-form adjoint pairing B'p(t)


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
    """Times in (0, T) where a smooth scalar function meets either bound."""
    ts = np.linspace(0.0, T, 4001)
    out = []
    for bound in (lo, hi):
        f = lambda t: float(arg(t)) - bound
        fv = np.asarray(arg(ts), dtype=float) - bound
        sign_change = np.flatnonzero(fv[:-1] * fv[1:] < 0.0)
        for j in sign_change:
            out.append(brentq(f, ts[j], ts[j + 1], xtol=1e-15, rtol=1e-15))
        out.extend(ts[fv == 0.0])
    return split_at([0.0, T], out, rel_tol=1e-12)[1:-1]


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
    term = lambda theta, dtheta=None, breaks=(): SeparableTerm(
        theta=theta, dtheta=dtheta, profile=g,
        lap_profile=lambda x1, x2: -lam * g(x1, x2), breaks=tuple(breaks))

    u_arg = lambda t: -p(t) / (4.0 * alpha)
    bounds = list(zip(box.lower.tolist(), box.upper.tolist()))
    u_funcs = [lambda t, lo=lo, hi=hi: np.clip(u_arg(t), lo, hi)
               for lo, hi in bounds]
    u_breaks = [find_crossings(u_arg, lo, hi, T) for lo, hi in bounds]
    y0 = float(y(0.0))

    exact = ExactSolution(
        u_funcs=u_funcs, u_breaks=u_breaks, y=[term(y, dy)], p=[term(p, dp)],
        p_rhs=[term(lambda t: lam * p(t) - dp(t))],
        pairing=lambda t: np.tile(np.atleast_1d(p(t) / 4.0), box.dim))
    return ProblemSpec(
        name=name, T=T, alpha=alpha, uad=box, g=[g] * box.dim,
        g0=[term(lambda t: dy(t) + lam * y(t))]
        + [term(lambda t, u=u: -u(t), breaks=b)
           for u, b in zip(u_funcs, u_breaks)],
        # not y0 * g(x1, x2): that rounds differently and moves the
        # example-1 tables by about 2e-13
        y0=lambda x1, x2: y0 * np.sin(q * np.pi * x1) * np.sin(q * np.pi * x2),
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


def _eval_terms(terms, ts, X, Y, use_dtheta=False, use_lap=False):
    out = np.zeros((len(ts), X.size))
    for term in terms:
        th = term.dtheta if use_dtheta else term.theta
        pr = term.lap_profile if use_lap else term.profile
        out += (np.asarray(th(ts), dtype=float)[:, None]
                * np.asarray(pr(X, Y), dtype=float).ravel()[None, :])
    return out


def self_test(problem, n_t=50, tol=1e-8):
    """Strong residuals of the optimality system at sample points.

    Returns the maximal state, adjoint, clamp-consistency and initial
    value residuals; raises AssertionError above ``tol``.
    """
    if problem.exact is None:
        raise ValueError("problem has no exact solution")
    ex = problem.exact
    ts = np.linspace(0.0, problem.T, n_t)
    xs = np.array([0.25, 0.5, 0.75])
    X, Y = np.meshgrid(xs, xs)

    f = _eval_terms(problem.g0, ts, X, Y)
    for i, g in enumerate(problem.g):
        f += (np.asarray(ex.u_funcs[i](ts), dtype=float)[:, None]
              * np.asarray(g(X, Y), dtype=float).ravel()[None, :])
    r_state = (_eval_terms(ex.y, ts, X, Y, use_dtheta=True)
               - _eval_terms(ex.y, ts, X, Y, use_lap=True) - f)

    h = _eval_terms(ex.p_rhs, ts, X, Y)
    r_adj = (-_eval_terms(ex.p, ts, X, Y, use_dtheta=True)
             - _eval_terms(ex.p, ts, X, Y, use_lap=True) - h)

    w = np.column_stack([ex.pairing(t) for t in ts])         # (D, n_t)
    proj = np.clip(-w / problem.alpha, problem.uad.lower[:, None],
                   problem.uad.upper[:, None])
    uu = np.array([u(ts) for u in ex.u_funcs], dtype=float).reshape(proj.shape)
    r_opt = float(np.max(np.abs(proj - uu), initial=0.0))

    y00 = _eval_terms(ex.y, np.zeros(1), X, Y)[0]
    r_y0 = float(np.max(np.abs(
        y00 - np.asarray(problem.y0(X, Y), dtype=float).ravel())))

    res = {
        "state": float(np.max(np.abs(r_state))),
        "adjoint": float(np.max(np.abs(r_adj))),
        "optimality": r_opt,
        "initial": r_y0,
    }
    worst = max(res.values())
    assert worst < tol, f"self-test residuals too large: {res}"
    return res
