"""P1 finite elements on a structured triangulation of the unit square.

The mesh is the usual criss-cross pattern: an n-by-n grid of nodes, each
square cell split along its lower-left/upper-right diagonal.  Homogeneous
Dirichlet conditions are built in by assembling only over interior nodes,
so mass and stiffness matrices are SPD and fields are coefficient vectors
indexed by interior degrees of freedom.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass
class StructuredTriMesh:
    n_per_side: int
    h: float
    nodes: np.ndarray          # (n*n, 2), row-major: node j*n+i at (i*h, j*h)
    triangles: np.ndarray      # (2*(n-1)^2, 3), counterclockwise
    interior: np.ndarray       # interior node ids in dof order
    interior_index: np.ndarray  # node id -> dof id, -1 on the boundary
    lumped_weights: np.ndarray = field(default=None)  # per dof, sum area/3


def build_mesh(n_per_side):
    """Criss-cross triangulation of (0,1)^2 with n_per_side nodes per side."""
    n = n_per_side
    if n < 3:
        raise ValueError(f"need at least 3 nodes per side, got {n}")
    h = 1.0 / (n - 1)
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    i, j = np.meshgrid(np.arange(n - 1), np.arange(n - 1), indexing="xy")
    ll = (j * n + i).ravel()
    lr = ll + 1
    ul = ll + n
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])   # diagonal ll-ur
    upper = np.column_stack([ll, ur, ul])
    triangles = np.vstack([lower, upper])

    ii = np.arange(n * n) % n
    jj = np.arange(n * n) // n
    is_interior = (ii > 0) & (ii < n - 1) & (jj > 0) & (jj < n - 1)
    interior = np.flatnonzero(is_interior)
    interior_index = np.full(n * n, -1, dtype=np.int64)
    interior_index[interior] = np.arange(interior.size)

    mesh = StructuredTriMesh(n, h, nodes, triangles, interior, interior_index)
    mesh.lumped_weights = _lumped_weights(mesh)
    return mesh


def _triangle_geometry(mesh):
    """Per-triangle vertex coordinates, edge coefficients and areas."""
    p = mesh.nodes[mesh.triangles]          # (ntri, 3, 2)
    x, y = p[:, :, 0], p[:, :, 1]
    # b_i = y_j - y_k, c_i = x_k - x_j with (i,j,k) cyclic
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return b, c, area


def _lumped_weights(mesh):
    """Vertex quadrature weights sum(area/3) per interior dof."""
    _, _, area = _triangle_geometry(mesh)
    w = np.zeros(mesh.nodes.shape[0])
    np.add.at(w, mesh.triangles.ravel(), np.repeat(area / 3.0, 3))
    return w[mesh.interior]


def _assemble_pair(mesh, local):
    """Interior-restricted CSR matrix from (ntri,3,3) local blocks;
    duplicate entries are summed."""
    tri_dofs = mesh.interior_index[mesh.triangles]        # (ntri, 3)
    rows = np.repeat(tri_dofs, 3, axis=1).ravel()
    cols = np.tile(tri_dofs, (1, 3)).ravel()
    vals = local.ravel()
    keep = (rows >= 0) & (cols >= 0)
    nd = mesh.interior.size
    return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(nd, nd)).tocsr()


def mass_matrix(mesh):
    _, _, area = _triangle_geometry(mesh)
    local = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
    return _assemble_pair(mesh, local)


def stiffness_matrix(mesh):
    b, c, area = _triangle_geometry(mesh)
    local = (np.einsum("ti,tj->tij", b, b) + np.einsum("ti,tj->tij", c, c))
    local /= (4.0 * area)[:, None, None]
    return _assemble_pair(mesh, local)


def interpolate(mesh, f):
    """Nodal interpolation of f(x1, x2) on interior dofs."""
    x = mesh.nodes[mesh.interior, 0]
    y = mesh.nodes[mesh.interior, 1]
    try:
        vals = np.asarray(f(x, y), dtype=float)
        if vals.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(f(xi, yi)) for xi, yi in zip(x, y)])
    if not np.all(np.isfinite(vals)):
        bad = np.flatnonzero(~np.isfinite(vals))[0]
        raise ValueError(f"non-finite nodal value at x=({x[bad]}, {y[bad]})")
    return vals


def l2_sq_rows(M_h, X):
    """Squared L2 norms of the rows of X, one field per row."""
    return np.einsum("mi,im->m", X, M_h @ X.T)
