"""Temporal meshes and the piecewise-constant / piecewise-linear fields.

The primal partition 0 = t_0 < ... < t_M = T carries two discrete spaces:
ansatz functions that are constant on each interval I_m = [t_{m-1}, t_m)
with an extra degree of freedom for the value at t = T, and continuous
piecewise-linear test functions with nodal values at the t_m.  The dual
grid through the interval midpoints supports the second-order
post-processing interpolant.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class TimeGrid:
    T: float
    t: np.ndarray            # nodes, length M+1
    k: np.ndarray            # interval lengths, length M
    midpoints: np.ndarray    # interval midpoints t*_m, length M
    dual_nodes: np.ndarray   # 0, t*_1 .. t*_M, T  (length M+2)
    k_max: float

    @property
    def M(self):
        return len(self.k)

    def interval_index(self, times):
        """Index m-1 of the interval [t_{m-1}, t_m) containing each time.

        Left-closed; t = T is assigned to the last interval.
        """
        idx = np.searchsorted(self.t, times, side="right") - 1
        return np.clip(idx, 0, self.M - 1)


def make_grid(t):
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("need at least two time nodes")
    if not (t[0] == 0.0 and np.all(t[1:] > t[:-1]) and t[-1] < np.inf):
        raise ValueError("time nodes must start at 0, increase strictly "
                         "and be finite")
    k = np.diff(t)
    mid = 0.5 * (t[:-1] + t[1:])
    dual = np.concatenate([[0.0], mid, [t[-1]]])
    return TimeGrid(float(t[-1]), t, k, mid, dual, float(k.max()))


def uniform_grid(T, M):
    if not (M >= 1 and 0 < T < np.inf):
        raise ValueError("need M >= 1 and finite T > 0")
    return make_grid(np.linspace(0.0, T, M + 1))


def graded_grid(T, M, gamma):
    """Nodes T*(m/M)**gamma; gamma = 1 recovers the uniform grid."""
    if not (M >= 1 and 0 < T < np.inf):
        raise ValueError("need M >= 1 and finite T > 0")
    if not gamma > 0:
        raise ValueError("grading exponent must be positive")
    m = np.arange(M + 1) / M
    return make_grid(T * m**gamma)


@dataclass
class PiecewiseConstantField:
    """Interval values alpha_1..alpha_M plus the terminal value alpha_{M+1}.

    ``values`` has the time axis first: values[m-1] is the constant on
    I_m and values[M] the separate value at t = T.
    """
    grid: TimeGrid
    values: np.ndarray

    def value(self, t):
        t = np.asarray(t, dtype=float)
        at_T = t == self.grid.T
        return np.where(at_T[..., None] if self.values.ndim > 1 else at_T,
                        self.values[-1],
                        self.values[self.grid.interval_index(t)])


@dataclass
class PiecewiseLinearField:
    """Continuous piecewise-linear field over an arbitrary node vector.

    Used both for the test-space fields on the primal nodes and for the
    post-processed interpolants on the dual nodes.
    """
    times: np.ndarray
    values: np.ndarray

    def value(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1,
                      0, len(self.times) - 2)
        t0, t1 = self.times[idx], self.times[idx + 1]
        w = (t - t0) / (t1 - t0)
        if self.values.ndim > 1:
            w = w[..., None]
        return (1.0 - w) * self.values[idx] + w * self.values[idx + 1]


def dual_linear_projection(w, grid):
    """Second-order post-processing of a piecewise-constant field.

    Interpolates the interval values at the midpoints t*_1..t*_M and
    extends linearly to t = 0 (through the first two midpoint values) and
    to t = T (through the last two).  Needs M >= 2.
    """
    if grid.M < 2:
        raise ValueError("dual interpolation needs at least two intervals")
    mids = w.values[:-1]
    ts = grid.midpoints
    left = mids[0] + (0.0 - ts[0]) / (ts[1] - ts[0]) * (mids[1] - mids[0])
    right = (mids[-2] + (grid.T - ts[-2]) / (ts[-1] - ts[-2])
             * (mids[-1] - mids[-2]))
    vals = np.concatenate([[left], mids, [right]])
    return PiecewiseLinearField(grid.dual_nodes, vals)
