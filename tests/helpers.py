"""Brute-force reference implementations shared by the test modules.

The dense oracles assemble the full space-time block system of the
piecewise-constant-in-time Petrov-Galerkin discretization directly from
the bilinear form with generic numeric quadrature, and solve it with
numpy.  They are deliberately slow and independent of the sequential
sweeps in the package.
"""

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from parapt.control import (INACTIVE, LOWER, UPPER, AdmissibleSet,
                            ClampedLinearControl)
from parapt.problems import _mode_problem
from parapt.quadrature import gauss_points, split_at
from parapt.state import mass_rows, separable_sq_norm
from parapt.timegrid import PiecewiseConstantField

GAUSS12 = leggauss(12)

# registry filled by test_acceptance, printed by the terminal summary hook
ACCEPTANCE_LINES = []


def record(number, ok, detail, informational=False):
    tag = "INFO" if informational else ("PASS" if ok else "FAIL")
    ACCEPTANCE_LINES.append((number, f"[{tag}] criterion {number}: {detail}"))


def element_stiffness(coords):
    """Stiffness matrix of one P1 triangle given its 3x2 vertex array."""
    x, y = coords[:, 0], coords[:, 1]
    b = y[[1, 2, 0]] - y[[2, 0, 1]]
    c = x[[2, 0, 1]] - x[[1, 2, 0]]
    area = 0.5 * (b[0] * c[1] - b[1] * c[0])
    return (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)


def element_mass(coords):
    """Consistent mass matrix of one P1 triangle."""
    x, y = coords[:, 0], coords[:, 1]
    b = y[[1, 2, 0]] - y[[2, 0, 1]]
    c = x[[2, 0, 1]] - x[[1, 2, 0]]
    area = 0.5 * (b[0] * c[1] - b[1] * c[0])
    return (area / 12.0) * (np.ones((3, 3)) + np.eye(3))


def element_assembly(mesh, element):
    """Interior-restricted CSR matrix summed triangle by triangle from the
    3x3 blocks ``element(coords)`` (element_mass or element_stiffness):
    COO entries of every triangle, boundary rows and columns dropped,
    duplicates summed."""
    tri_dofs = mesh.interior_index[mesh.triangles]        # (ntri, 3)
    local = np.array([element(mesh.nodes[t]) for t in mesh.triangles])
    rows = np.repeat(tri_dofs, 3, axis=1).ravel()
    cols = np.tile(tri_dofs, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    nd = mesh.interior.size
    return sp.coo_matrix((local.ravel()[keep], (rows[keep], cols[keep])),
                         shape=(nd, nd)).tocsr()


def element_lumped_weights(mesh):
    """Per interior dof, the sum of area/3 over the triangles at its node;
    a triangle's area is the sum of its element mass matrix."""
    area = np.array([element_mass(mesh.nodes[t]).sum()
                     for t in mesh.triangles])
    w = np.zeros(mesh.nodes.shape[0])
    np.add.at(w, mesh.triangles.ravel(), np.repeat(area / 3.0, 3))
    return w[mesh.interior]


def l1_norm(mesh, u):
    """Lumped vertex-quadrature L1 norm (boundary values are zero)."""
    return float(mesh.lumped_weights @ np.abs(u))


def linf_norm(u):
    return float(np.max(np.abs(u)))


def total_variation(values):
    return float(np.sum(np.abs(np.diff(values))))


def interval_mean_projection(v, grid):
    """Project onto interval means (5-point Gauss); terminal slot is zero."""
    pts, wts = gauss_points(grid.t[:-1], grid.t[1:])
    samples = np.asarray([np.asarray(v(t), dtype=float) for t in pts.ravel()])
    samples = samples.reshape(pts.shape + samples.shape[1:])
    w = wts.reshape(wts.shape + (1,) * (samples.ndim - 2))
    means = (w * samples).sum(axis=1) / grid.k.reshape(
        (-1,) + (1,) * (samples.ndim - 2))
    terminal = np.zeros_like(means[0])
    return PiecewiseConstantField(grid, np.concatenate([means, [terminal]]))


def l2l2_distance(a, b, M_h, chunk=256):
    """L2(0,T; L2(Omega)) distance of two discrete fields.

    Each field is a PiecewiseConstantField or a PiecewiseLinearField, on
    its own partition of the same [0, T].  On every piece of the union of
    both node sets the integrand is a quadratic in time, so two Gauss
    points per piece integrate it exactly; space uses the mass matrix.
    Gauss points are processed in chunks to bound memory on fine grids.
    """
    def nodes(f):
        return f.grid.t if isinstance(f, PiecewiseConstantField) else f.times

    edges = split_at(nodes(a), nodes(b))
    pts, wts = (x.ravel() for x in gauss_points(edges[:-1], edges[1:], rule=2))
    total = 0.0
    for s in range(0, len(pts), chunk):
        diff = a.value(pts[s:s + chunk]) - b.value(pts[s:s + chunk])
        total += float(wts[s:s + chunk] @ np.sum(diff * (M_h @ diff.T).T,
                                                 axis=1))
    return float(np.sqrt(max(total, 0.0)))


def l2_sq_rows(M_h, X):
    """Squared L2 norms of the rows of X, one field per row."""
    return np.einsum("mi,mi->m", X, X @ M_h)


def state_l2_stability_check(y_k, terms, y0, M_h, grid):
    """Ratio ||y_k|| / (||f|| + ||y0||) in L2(L2); bounded uniformly in k."""
    num = np.sqrt(float(grid.k @ l2_sq_rows(M_h, y_k.values[:grid.M])))
    f_norm = np.sqrt(max(separable_sq_norm(terms, M_h, grid), 0.0))
    y0_norm = np.sqrt(max(float(np.asarray(y0) @ (M_h @ y0)), 0.0))
    return num / (f_norm + y0_norm)


def adjoint_stability_check(p_k, rhs_norm, M_h, K_h, grid):
    """(||p_k||_{H1(L2)} + ||grad p_k(0)||) / ||h||, bounded uniformly."""
    a, b = p_k.values[:-1], p_k.values[1:]
    # Simpson is exact for the quadratic t -> ||p(t)||^2
    sq_l2 = grid.k / 6.0 @ (l2_sq_rows(M_h, a) + l2_sq_rows(M_h, b)
                            + 4.0 * l2_sq_rows(M_h, 0.5 * (a + b)))
    sq_dt = grid.k @ l2_sq_rows(M_h, (b - a) / grid.k[:, None])
    h1 = np.sqrt(sq_l2 + sq_dt)
    grad0 = np.sqrt(max(float(a[0] @ (K_h @ a[0])), 0.0))
    return (h1 + grad0) / rhs_norm


def apply_B_adjoint(p_k, shapes, M_h):
    """Nodal values of t -> ((g_1, p(t)), ..., (g_D, p(t))).

    ``shapes`` are the interior nodal coefficient vectors of the control
    shape functions g_i; the pairing of a piecewise-linear field is again
    piecewise linear, so nodal values determine it.  Returns (D, M+1).
    """
    return (p_k.values @ mass_rows(M_h, shapes).T).T


def reference_clamp(times, nodal_values, box):
    """Exact pointwise projection of piecewise-linear data onto the box,
    with its own breakpoint merge and per-parent-piece interpolation.

    Crossing locations are solved per piece in closed form; crossings
    closer than 1e-13*T to an existing node are dropped, a double crossing
    within 1e-13*T counts once, and pieces with slope below 1e-14 in
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
        va[:-1][active] = pin[active]
        breaks.append(br)
        vals.append(np.clip(va, lo, hi))
        tags.append(np.where(up, UPPER, np.where(down, LOWER, INACTIVE))
                    .astype(np.int8))
    return ClampedLinearControl(T, breaks, vals, tags)


def hat(j, t, nodes):
    """Nodal piecewise-linear basis function j evaluated at times t."""
    t = np.asarray(t, dtype=float)
    return np.interp(t, nodes, np.eye(len(nodes))[j])


def _interval_quadrature(t0, t1):
    xg, wg = GAUSS12
    pts = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * xg
    wts = 0.5 * (t1 - t0) * wg
    return pts, wts


def dense_state_oracle(Md, Kd, grid, theta, g, y0):
    """One block solve for the state: unknowns are the M interval values
    plus the value at the final time, tested against all nodal hats.

    Row j, column block i carries
        -(int_{I_i} b_j' dt) Md + (int_{I_i} b_j dt) Kd
    the terminal column carries b_j(T) Md, and the right-hand side is
    int theta b_j dt (Md g) plus the initial pairing b_j(0) (Md y0).
    """
    n = Md.shape[0]
    M = grid.M
    nodes = grid.t
    A = np.zeros(((M + 1) * n, (M + 1) * n))
    rhs = np.zeros((M + 1) * n)
    for j in range(M + 1):
        acc = 0.0
        for i in range(1, M + 1):
            pts, wts = _interval_quadrature(nodes[i - 1], nodes[i])
            int_b = float(wts @ hat(j, pts, nodes))
            int_db = float(hat(j, nodes[i], nodes) - hat(j, nodes[i - 1], nodes))
            A[j * n:(j + 1) * n, (i - 1) * n:i * n] += -int_db * Md + int_b * Kd
            acc += float(wts @ (np.asarray(theta(pts)) * hat(j, pts, nodes)))
        A[j * n:(j + 1) * n, M * n:] += float(hat(j, grid.T, nodes)) * Md
        rhs[j * n:(j + 1) * n] = acc * (Md @ g) + float(hat(j, 0.0, nodes)) * (Md @ y0)
    return np.linalg.solve(A, rhs).reshape(M + 1, n)


def dense_adjoint_oracle(Md, Kd, grid, theta=None, g=None, loads=None):
    """Block solve for the adjoint: unknowns are the M+1 nodal values,
    tested against interval indicators plus the terminal condition.

    The right-hand side is either the separable pair (theta, g) or a
    precomputed list of per-interval load vectors int_{I_m} h dt.
    """
    n = Md.shape[0]
    M = grid.M
    nodes = grid.t
    A = np.zeros(((M + 1) * n, (M + 1) * n))
    rhs = np.zeros((M + 1) * n)
    for m in range(1, M + 1):
        pts, wts = _interval_quadrature(nodes[m - 1], nodes[m])
        for j in range(M + 1):
            int_b = float(wts @ hat(j, pts, nodes))
            int_db = float(hat(j, nodes[m], nodes) - hat(j, nodes[m - 1], nodes))
            A[(m - 1) * n:m * n, j * n:(j + 1) * n] += -int_db * Md + int_b * Kd
        if loads is not None:
            rhs[(m - 1) * n:m * n] = loads[m - 1]
        else:
            rhs[(m - 1) * n:m * n] = float(wts @ np.asarray(theta(pts))) * (Md @ g)
    A[M * n:, M * n:] += Md
    return np.linalg.solve(A, rhs).reshape(M + 1, n)


def skewed_example2(dy_scale=1.0, dp_scale=1.0):
    """Example 2 with its loads built from y' and p' times the scales; the
    default scales give example 2 itself."""
    om = 4.0 * np.pi / 0.5
    c = lambda t: np.cos(om * np.asarray(t, dtype=float))
    ds = lambda t: -om * np.sin(om * np.asarray(t, dtype=float))
    return _mode_problem(
        "example2", 0.5, 1.0, AdmissibleSet(0.2, 0.4),
        y=c, dy=lambda t: dy_scale * ds(t),
        p=lambda t: c(t) - np.cos(4.0 * np.pi), dp=lambda t: dp_scale * ds(t))
