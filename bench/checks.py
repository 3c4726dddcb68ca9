"""Output checks of the benchmark workloads.

Every check returns a list of failure messages (empty when it passes), so
``test_checks.py`` can feed each one a deliberately wrong input and see it
fail.  The checks rest on properties of the method and on values computed
apart from the sweeps:

- the criterion-6 band rule on observed L2 orders (``EOC_BANDS`` with the
  floor-aware ``qualifying_orders``, as in ``tests/test_acceptance.py``);
- the published control errors of the first example;
- byte-identical CSVs for identical flags;
- a one-shot sparse space-time solve of the state and adjoint systems,
  assembled here with scipy from the mesh geometry alone.
"""

import csv
import io

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

EOC_BANDS = {"control": (1.8, 2.3), "state": (0.85, 1.15),
             "state_projected": (1.75, 2.3), "adjoint": (1.75, 2.3)}

# published control L2 errors of the first example, by interval count
PAPER_CONTROL_L2 = {4: 0.08052755, 8: 0.01977927, 16: 0.00448012}
# on the 129x129 mesh the errors at M=4 and M=8 lie 6-7% below these
PAPER_REL_TOL = 0.15

# criteria 1-2: sweep vs space-time solve, max-norm relative
ORACLE_REL_TOL = 1e-9


def parse_csv(data):
    """Rows of a CLI error-table CSV as dicts of floats (None if empty)."""
    text = data.decode() if isinstance(data, bytes) else data
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        rows.append({key: (float(val) if val != "" else None)
                     for key, val in rec.items()})
    return rows


def observed_orders(errors, ks):
    """log(e_prev / e) / log(k_prev / k) for consecutive levels."""
    return [float(np.log(errors[i - 1] / errors[i])
                  / np.log(ks[i - 1] / ks[i]))
            for i in range(1, len(errors))]


def qualifying_orders(orders, lo):
    """Orders the criterion-6 band rule asserts on a fixed spatial mesh.

    The first ratio is startup and never asserted.  Once an order falls
    below the band the time error has reached the fixed-mesh floor, so that
    ratio and every finer one are left out.
    """
    keep = []
    for i, x in enumerate(orders, start=1):
        if i >= 2 and x < lo:
            break
        if i >= 2:
            keep.append(x)
    return keep


def band_failures(tables, control_min=1):
    """Criterion-6 band rule on CSV rows keyed by table name."""
    failures = []
    for name, (lo, hi) in EOC_BANDS.items():
        rows = tables.get(name)
        if not rows:
            failures.append(f"{name}: table missing")
            continue
        orders = [r["eoc_L2"] for r in rows[1:]]
        if any(x is None for x in orders):
            failures.append(f"{name}: L2 order missing in {orders}")
            continue
        q = qualifying_orders(orders, lo)
        need = control_min if name == "control" else 1
        if len(q) < need or not all(lo <= x <= hi for x in q):
            failures.append(f"{name}: L2 orders {np.round(orders, 3).tolist()}"
                            f", qualifying {np.round(q, 3).tolist()}, need "
                            f"{need} in [{lo}, {hi}]")
    return failures


def order_failures(name, orders, band):
    """Every observed order must lie in ``band``."""
    lo, hi = band
    if not orders or not all(lo <= x <= hi for x in orders):
        return [f"{name}: orders {np.round(orders, 3).tolist()} "
                f"not all in [{lo}, {hi}]"]
    return []


def paper_failures(control_rows, rel_tol=PAPER_REL_TOL):
    """Control L2 errors against the published values at equal M."""
    failures = []
    for row in control_rows:
        M = int(row["M"])
        ref = PAPER_CONTROL_L2.get(M)
        if ref is not None and abs(row["err_L2"] - ref) > rel_tol * ref:
            failures.append(f"control L2 at M={M}: {row['err_L2']:.4e} vs "
                            f"published {ref:.4e} (tolerance {rel_tol:.0%})")
    return failures


def identical_failures(outputs):
    """Each repetition's named outputs must equal the first one's exactly."""
    failures = []
    for i, out in enumerate(outputs[1:], start=1):
        for name in sorted(set(outputs[0]) | set(out)):
            if outputs[0].get(name) != out.get(name):
                failures.append(f"{name}: repetition {i} differs from "
                                f"repetition 0")
    return failures


def p1_matrices(nodes, triangles, interior_index):
    """Consistent P1 mass and stiffness matrices on the interior dofs."""
    p = nodes[triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    area = 0.5 * np.abs(b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    mass = area[:, None, None] / 12.0 * (np.ones((3, 3)) + np.eye(3))
    stiff = ((b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
             / (4.0 * area)[:, None, None])
    dofs = interior_index[triangles]
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = int(interior_index.max()) + 1

    def build(local):
        return sp.csr_matrix((local.ravel()[keep], (rows[keep], cols[keep])),
                             shape=(n, n))
    return build(mass), build(stiff)


def _gauss(t, order=12):
    """Gauss-Legendre points and weights on each interval of nodes ``t``."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    k = np.diff(t)
    pts = 0.5 * (t[:-1] + t[1:])[:, None] + 0.5 * k[:, None] * xg
    return pts, 0.5 * k[:, None] * wg


def _block_solve(blocks, rhs):
    """Solve a block-bidiagonal system at once; the minimum-degree ordering
    of A+A' keeps the fill of that pattern low."""
    A = sp.bmat(blocks, format="csc")
    x = spla.spsolve(A, rhs.ravel(), permc_spec="MMD_AT_PLUS_A")
    return x.reshape(rhs.shape)


def space_time_state(Md, Kd, t, terms, y0):
    """Interval values and terminal value from one sparse block solve.

    The piecewise-constant trial space tested with the nodal hats: row j
    holds sum_i (-int_{I_i} hat_j' Md + int_{I_i} hat_j Kd) a_i plus
    hat_j(T) Md a_{M+1}, and the right-hand side int theta hat_j (Md g)
    plus hat_j(0) Md y0.  ``terms`` are (theta, g) pairs.
    """
    M = len(t) - 1
    k = np.diff(t)
    blocks = [[None] * (M + 1) for _ in range(M + 1)]
    for i in range(M):
        blocks[i][i] = Md + 0.5 * k[i] * Kd            # hat_i on I_{i+1}
        blocks[i + 1][i] = -Md + 0.5 * k[i] * Kd       # hat_{i+1} on I_{i+1}
    blocks[M][M] = Md
    pts, wts = _gauss(t)
    up = (pts - t[:-1, None]) / k[:, None]              # rising hat on I_i
    rhs = np.zeros((M + 1, Md.shape[0]))
    for theta, g in terms:
        th = np.asarray(theta(pts), dtype=float) * wts
        w = np.zeros(M + 1)
        w[:-1] += (th * (1.0 - up)).sum(axis=1)
        w[1:] += (th * up).sum(axis=1)
        rhs += np.outer(w, Md @ g)
    rhs[0] += Md @ y0
    return _block_solve(blocks, rhs)


def space_time_adjoint(Md, Kd, t, terms):
    """Nodal values from one sparse block solve of the adjoint system.

    The piecewise-linear trial space tested with interval indicators: row m
    holds -int_{I_m} beta' Md + int_{I_m} beta Kd = int_{I_m} theta (Md g).
    The terminal condition beta_M = 0 is imposed by leaving beta_M out, so
    no block of the system is the bare mass matrix (whose small entries
    would make SuperLU pivot away from the diagonal and fill in).
    """
    M = len(t) - 1
    k = np.diff(t)
    blocks = [[None] * M for _ in range(M)]
    for m in range(M):
        blocks[m][m] = Md + 0.5 * k[m] * Kd
        if m + 1 < M:
            blocks[m][m + 1] = -Md + 0.5 * k[m] * Kd
    pts, wts = _gauss(t)
    rhs = np.zeros((M, Md.shape[0]))
    for theta, g in terms:
        rhs += np.outer((np.asarray(theta(pts)) * wts).sum(axis=1), Md @ g)
    return np.vstack([_block_solve(blocks, rhs), np.zeros(Md.shape[0])])


def field_failures(name, got, ref, tol=ORACLE_REL_TOL):
    """Max-norm relative distance of a swept field from the oracle."""
    got = np.asarray(got, dtype=float)
    if got.shape != ref.shape:
        return [f"{name}: shape {got.shape} vs oracle {ref.shape}"]
    rel = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    if not rel <= tol:
        return [f"{name}: max relative distance {rel:.2e} from the "
                f"space-time solve (tolerance {tol:.0e})"]
    return []
