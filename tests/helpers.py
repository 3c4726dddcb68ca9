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

from parapt.quadrature import gauss_points, split_at
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


def reference_step_band(M_h, K_h, k):
    """M + (k/2) K in LAPACK lower band storage, built from the sparse sum:
    ab[i - j, j] = A[i, j] for every stored entry on or below the
    diagonal."""
    low = sp.tril(M_h + 0.5 * float(k) * K_h).tocoo()
    offset = low.row - low.col
    band = np.zeros((offset.max(initial=0) + 1, low.shape[0]), order="F")
    band[offset, low.col] = low.data
    return band


def reference_band_offsets(M_h, K_h):
    """Offsets i - j >= 0 of the sub-diagonals holding a nonzero of M or
    K, from the sparse lower triangle of |M| + |K|."""
    low = sp.tril(abs(M_h) + abs(K_h)).tocoo()
    return np.unique(low.row - low.col)


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
