"""P1 finite elements on a structured triangulation of the unit square.

The mesh is an n-by-n grid of nodes whose square cells are each cut along
their lower-left/upper-right diagonal into two triangles (one diagonal,
not the criss-cross pattern of two).  Homogeneous Dirichlet conditions
are built in by keeping only interior nodes, so mass and stiffness
matrices are SPD and fields are coefficient vectors indexed by interior
degrees of freedom.  Every node lies in the same six triangles, so with
h = 1/(n-1) each matrix row is one 7-point stencil cut off at the
boundary: M has h^2/2 at the centre and h^2/12 to the E, W, N, S, NE and
SW neighbours, K has 4 at the centre and -1 to E, W, N and S, and the
lumped weight of every interior node is h^2 (area/3 of six triangles).
"""

from dataclasses import dataclass

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
    lumped_weights: np.ndarray  # per dof, sum of area/3: h^2


def build_mesh(n_per_side):
    """Triangulation of (0,1)^2 with n_per_side nodes per side."""
    n = n_per_side
    if n < 3:
        raise ValueError(f"need at least 3 nodes per side, got {n}")
    h = 1.0 / (n - 1)
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    ids = np.arange(n * n).reshape(n, n)        # ids[j, i] = j*n + i
    ll, lr = ids[:-1, :-1].ravel(), ids[:-1, 1:].ravel()
    ul, ur = ids[1:, :-1].ravel(), ids[1:, 1:].ravel()
    triangles = np.vstack([np.column_stack([ll, lr, ur]),   # diagonal ll-ur
                           np.column_stack([ll, ur, ul])])
    interior = ids[1:-1, 1:-1].ravel()
    interior_index = np.full(n * n, -1, dtype=np.int64)
    interior_index[interior] = np.arange(interior.size)
    return StructuredTriMesh(n, h, nodes, triangles, interior, interior_index,
                             np.full(interior.size, h * h))


# steps (di, dj) from a node to the one di nodes east and dj nodes north,
# in the column order of a matrix row: SW, S, W, centre, E, N, NE
STEPS = np.array([(-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1)])


def _stencil_matrix(mesh, weights):
    """Interior-restricted CSR matrix whose row for node (i, j) holds
    weights[s] at node (i + di, j + dj) for each step s = (di, dj) with a
    nonzero weight that stays in the interior."""
    m = mesh.n_per_side - 2
    weights = np.asarray(weights, dtype=float)
    di, dj = STEPS[weights != 0].T
    j, i = np.divmod(np.arange(m * m), m)
    i, j = i[:, None] + di, j[:, None] + dj   # neighbour of each dof, per step
    keep = (i >= 0) & (i < m) & (j >= 0) & (j < m)
    data = np.broadcast_to(weights[weights != 0], keep.shape)[keep]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((data, (j * m + i)[keep], indptr),
                         shape=(m * m, m * m))


def mass_matrix(mesh):
    w = mesh.h ** 2 / 12.0
    return _stencil_matrix(mesh, [w, w, w, 6.0 * w, w, w, w])


def stiffness_matrix(mesh):
    return _stencil_matrix(mesh, [0, -1, -1, 4, -1, -1, 0])


def interpolate(mesh, f):
    """Nodal interpolation of f(x1, x2) on interior dofs; f takes arrays
    and may return a scalar for a constant profile."""
    x = mesh.nodes[mesh.interior, 0]
    y = mesh.nodes[mesh.interior, 1]
    vals = np.broadcast_to(f(x, y), x.shape).astype(float)  # a copy
    if not np.all(np.isfinite(vals)):
        bad = np.flatnonzero(~np.isfinite(vals))[0]
        raise ValueError(f"non-finite nodal value at x=({x[bad]}, {y[bad]})")
    return vals
