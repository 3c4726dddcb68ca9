"""Gauss-Legendre quadrature helpers on subintervals of the time axis.

All temporal integrals in this package reduce to sums over subintervals
[a, b] of fixed-order Gauss rules.  Smooth factors get the 5-point rule
(exact through degree 9), products of piecewise-linear factors are exact
already at 2 points, and control-norm integrals use 10 points.
"""

from functools import cache

import numpy as np

_leggauss = cache(np.polynomial.legendre.leggauss)


def gauss_points(a, b, rule=5):
    """Nodes and weights of the Gauss rule mapped to [a, b].

    ``a`` and ``b`` may be arrays of matching shape; the returned arrays
    then carry one extra trailing axis of length ``rule``.
    """
    x, w = _leggauss(rule)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[..., None] + half[..., None] * x
    wts = np.broadcast_to(w, pts.shape) * half[..., None]
    return pts, wts


def split_at(edges, inner, rel_tol=1e-13):
    """Refine a sorted edge list by interior points, dropping near-duplicates.

    Points in ``inner`` outside (edges[0], edges[-1]) are ignored, and a
    point closer than ``rel_tol * span`` to an existing edge is dropped so
    degenerate slivers never appear.
    """
    edges = np.asarray(edges, dtype=float)
    inner = np.asarray(inner, dtype=float)
    span = edges[-1] - edges[0]
    tol = rel_tol * span
    inner = inner[(inner > edges[0] + tol) & (inner < edges[-1] - tol)]
    if inner.size == 0:
        return edges
    merged = np.sort(np.concatenate([edges, inner]))
    keep = np.concatenate([[True], np.diff(merged) > tol])
    return merged[keep]
