"""Controls that are never expanded in a basis.

The discrete optimal control is the exact pointwise clamp of a continuous
piecewise-linear function (a scaled adjoint pairing), so each component is
again piecewise linear, but with breakpoints wherever the line crosses a
bound.  Those crossings are computed in closed form and kept, which is
what lets the control error drop at second order even though the state
space is only piecewise constant in time.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .quadrature import gauss_points, split_at
from .state import RhsTerm

LOWER, INACTIVE, UPPER = -1, 0, 1


@dataclass
class AdmissibleSet:
    """Componentwise box [lower_i, upper_i] for the control values."""
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise ValueError("bound vectors must have equal length")
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ValueError("bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def dim(self):
        return len(self.lower)


@dataclass
class ClampedLinearControl:
    """Piecewise-linear control with per-component breakpoints and tags.

    tags[i][j] says whether piece j of component i sits at the lower
    bound, at the upper bound, or is inactive (follows the unclamped
    line).  Active pieces are exactly constant at the bound.
    """
    breaks: list          # per component: breakpoint array, 0 .. T
    vals: list            # values at the breakpoints
    tags: list            # int array per component, one entry per piece

    @property
    def dim(self):
        return len(self.breaks)

    def value(self, i, t):
        return np.interp(t, self.breaks[i], self.vals[i])

    def squared_l2(self):
        """Exact integral of sum_i u_i(t)^2 (Simpson per linear piece)."""
        total = 0.0
        for br, va in zip(self.breaks, self.vals):
            dk = np.diff(br)
            a, b = va[:-1], va[1:]
            total += float(np.sum(dk * (a * a + a * b + b * b) / 3.0))
        return total


def clamp_control(times, nodal_values, box):
    """Exact pointwise projection of piecewise-linear data onto the box.

    ``nodal_values`` has shape (D, len(times)), and ``times`` starts at 0.
    Each piece whose slope exceeds 1e-14 relative to the data (not to the
    bounds, which may be infinite or far away) meets a bound
    at a closed-form time, kept if it lies more than 1e-13*T inside the
    piece.  split_at merges the kept crossings into the nodes, so a double
    crossing within 1e-13*T counts once.  Each sub-piece is tagged by the
    line's value at its midpoint, and the breakpoint values are the line
    clipped to the box.  Active pieces then pin both ends to their bound,
    a piece's left pin winning over its predecessor's right pin.
    """
    times = np.asarray(times, dtype=float)
    nodal_values = np.atleast_2d(np.asarray(nodal_values, dtype=float))
    T = times[-1]
    t0, t1, k = times[:-1], times[1:], np.diff(times)
    breaks, vals, tags = [], [], []
    for i, v in enumerate(nodal_values):
        lo, hi = box.lower[i], box.upper[i]
        v0, dv = v[:-1], np.diff(v)
        sloped = np.abs(dv) > 1e-14 * max(np.max(np.abs(v)), 1.0)
        # rows: crossing with lo, with hi
        s = t0 + (np.array([[lo], [hi]]) - v0) * k / np.where(sloped, dv, 1.0)
        hit = sloped & (t0 + 1e-13 * T < s) & (s < t1 - 1e-13 * T)
        br = split_at(times, s[hit])
        vmid = np.interp(0.5 * (br[:-1] + br[1:]), times, v)
        up, down = vmid >= hi, vmid <= lo
        active, pin = up | down, np.where(up, hi, lo)
        va = np.clip(np.interp(br, times, v), lo, hi)
        va[1:][active] = pin[active]
        va[:-1][active] = pin[active]
        breaks.append(br)
        vals.append(va)
        tags.append(np.where(up, UPPER, np.where(down, LOWER, INACTIVE))
                    .astype(np.int8))
    return ClampedLinearControl(breaks, vals, tags)


def constant_control(grid, values, box):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    nodal = np.repeat(values[:, None], len(grid.t), axis=1)
    return clamp_control(grid.t, nodal, box)


def control_to_rhs_terms(u, shapes):
    """One separable load term per control component."""
    return [RhsTerm(spatial=np.asarray(g, dtype=float),
                    temporal=partial(u.value, i), breaks=u.breaks[i][1:-1])
            for i, g in enumerate(shapes)]


def _as_eval(control):
    """Normalize a control argument to (dim, eval functions, breaks)."""
    if isinstance(control, ClampedLinearControl):
        return (control.dim, [partial(control.value, i)
                              for i in range(control.dim)], control.breaks)
    funcs, breaks = control
    return len(funcs), list(funcs), [np.asarray(b, dtype=float)
                                     for b in breaks]


def control_norms(u, v, T):
    """L1, L2 and Linf distance of two controls over [0, T].

    Each argument is a ClampedLinearControl or a pair (functions, breaks)
    for closed-form references.  Integration runs on the merged breakpoint
    partition: 10-point Gauss per piece for L1/L2, dense sampling (100
    points per piece plus endpoints) for Linf.
    """
    du, fu, bu = _as_eval(u)
    dv, fv, bv = _as_eval(v)
    if du != dv:
        raise ValueError("controls have different component counts")
    l1 = l2sq = linf = 0.0
    base = np.array([0.0, T])
    for i in range(du):
        edges = split_at(base, np.concatenate([bu[i], bv[i]]))
        samp = np.linspace(edges[:-1], edges[1:], 101).T
        dsamp = np.asarray(fu[i](samp)) - np.asarray(fv[i](samp))
        linf = max(linf, float(np.max(np.abs(dsamp))))
        # refine at sign changes so |difference| is smooth per piece
        left, right = dsamp[:, :-1], dsamp[:, 1:]
        flip = left * right < 0.0
        if np.any(flip):
            t0, t1 = samp[:, :-1][flip], samp[:, 1:][flip]
            d0, d1 = left[flip], right[flip]
            edges = split_at(edges, t0 - d0 * (t1 - t0) / (d1 - d0))
        pts, wts = gauss_points(edges[:-1], edges[1:], rule=10)
        diff = np.asarray(fu[i](pts)) - np.asarray(fv[i](pts))
        l1 += float((wts * np.abs(diff)).sum())
        l2sq += float((wts * diff * diff).sum())
    return {"L1": l1, "L2": float(np.sqrt(l2sq)), "Linf": linf}
