"""Controls that are never expanded in a basis.

The discrete optimal control is the exact pointwise clamp of a continuous
piecewise-linear function (a scaled adjoint pairing), so each component is
again piecewise linear, but with breakpoints wherever the line crosses a
bound.  Those crossings are computed in closed form and kept, which is
what lets the control error drop at second order even though the state
space is only piecewise constant in time.
"""

from dataclasses import dataclass

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
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def dim(self):
        return len(self.lower)

    def project(self, values):
        """Pointwise clamp of a (D, ...) array onto the box."""
        values = np.asarray(values, dtype=float)
        lo = self.lower.reshape((-1,) + (1,) * (values.ndim - 1))
        hi = self.upper.reshape((-1,) + (1,) * (values.ndim - 1))
        return np.minimum(np.maximum(values, lo), hi)


@dataclass
class ClampedLinearControl:
    """Piecewise-linear control with per-component breakpoints and tags.

    tags[i][j] says whether piece j of component i sits at the lower
    bound, at the upper bound, or is inactive (follows the unclamped
    line).  Active pieces are exactly constant at the bound.
    """
    T: float
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

    ``nodal_values`` has shape (D, len(times)).  Crossing locations are
    solved per piece in closed form; crossings closer than 1e-13*T to an
    existing node are dropped, and pieces with slope below 1e-14 in
    relative terms are treated as constant.
    """
    times = np.asarray(times, dtype=float)
    nodal_values = np.atleast_2d(np.asarray(nodal_values, dtype=float))
    T = times[-1]
    tol_t = 1e-13 * T
    t0, t1, k = times[:-1], times[1:], np.diff(times)
    breaks, vals, tags = [], [], []
    for i, v in enumerate(nodal_values):
        lo, hi = box.lower[i], box.upper[i]
        v0, dv = v[:-1], np.diff(v)
        scale = max(np.max(np.abs(v)), abs(lo), abs(hi), 1.0)
        sloped = np.abs(dv) > 1e-14 * scale
        # rows: crossing with lo, with hi; a piece missing one holds t1
        s = t0 + (np.array([[lo], [hi]]) - v0) * k / np.where(sloped, dv, 1.0)
        hit = sloped & (t0 + tol_t < s) & (s < t1 - tol_t)
        s = np.where(hit, s, t1)
        first, second = s.min(axis=0), s.max(axis=0)
        # a double crossing within 1e-13*T counts once
        double = hit.all(axis=0) & (second - first > tol_t)
        keep = np.column_stack([hit.any(axis=0), double, np.ones_like(double)])
        br = np.concatenate([times[:1],
                             np.column_stack([first, second, t1])[keep]])
        m = np.nonzero(keep)[0]         # parent piece of each sub-piece
        sa, sb = br[:-1], br[1:]
        vmid = v0[m] + (0.5 * (sa + sb) - t0[m]) * dv[m] / k[m]
        vb = v0[m] + (sb - t0[m]) * dv[m] / k[m]
        up, down = vmid >= hi, vmid <= lo
        active, pin = up | down, np.where(up, hi, lo)
        va = np.concatenate([[min(max(v[0], lo), hi)], np.where(
            active, pin, np.minimum(np.maximum(vb, lo), hi))])
        # active pieces pin both endpoints to the bound exactly; a piece's
        # left pin wins over its predecessor's right pin
        va[:-1][active] = pin[active]
        breaks.append(br)
        vals.append(np.clip(va, lo, hi))
        tags.append(np.where(up, UPPER, np.where(down, LOWER, INACTIVE))
                    .astype(np.int8))
    return ClampedLinearControl(T, breaks, vals, tags)


def constant_control(grid, values, box):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    nodal = np.repeat(values[:, None], len(grid.t), axis=1)
    return clamp_control(grid.t, nodal, box)


def control_to_rhs_terms(u, shapes):
    """One separable load term per control component."""
    terms = []
    for i, g in enumerate(shapes):
        br, va = u.breaks[i], u.vals[i]
        terms.append(RhsTerm(
            spatial=np.asarray(g, dtype=float),
            temporal=lambda t, br=br, va=va: np.interp(t, br, va),
            breaks=br[1:-1]))
    return terms


def _as_eval(control):
    """Normalize a control argument to (dim, eval functions, breaks)."""
    if isinstance(control, ClampedLinearControl):
        funcs = [lambda t, i=i: control.value(i, t)
                 for i in range(control.dim)]
        return control.dim, funcs, control.breaks
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
