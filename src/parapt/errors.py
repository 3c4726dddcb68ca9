"""Space-time error norms, observed convergence orders, and study drivers.

Errors against separable exact solutions are measured in L1(L1), L2(L2)
and Linf(Linf) over the space-time cylinder.  The spatial reference is
the nodal interpolant of the analytic profile on the fixed mesh, so a
spatial error floor shows up at fine time steps and is reported rather
than subtracted.  Time integration uses 5-point Gauss per interval of
whichever partition the approximation lives on, spatial L1 uses lumped
vertex quadrature, and the sup norm is sampled at Gauss points plus
interval endpoints, a chunk of intervals at a time with two dense
products of a small coefficient matrix with stored rows.
"""

import time
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .adjoint import solve_adjoint
from .control import control_norms
from .fem import build_mesh, interpolate, mass_matrix, stiffness_matrix
from .optimizer import FixedPointError, discretize_problem, fixed_point_solve
from .quadrature import gauss_points
from .state import (NonFiniteSweepError, StepMatrixCache, discretize_terms,
                    solve_state)
from .timegrid import (PiecewiseConstantField, dual_linear_projection,
                       uniform_grid)

TABLES = ("control", "state", "state_projected", "adjoint")
CHUNK_ENTRIES = 2**16    # sampled coefficients per chunk of field_error_norms


def field_error_norms(exact_terms, approx, mesh, M_h):
    """L1(L1), L2(L2), Linf(Linf) distance of a discrete field from a sum
    of separable terms (theta, interior coefficient vector).

    Samples are each interval's five Gauss points and ends, where the
    field weighs its values by 1 - r and r (r = 0 if piecewise constant).
    A chunk's errors are a coefficient matrix C times [g_1..g_T; v_lo..v_hi],
    their M-products C's Gauss rows times [M g_i; M v_j], each M v_j made
    once.  Chunks hold at most ``CHUNK_ENTRIES`` sampled values, C as many.
    """
    pc = isinstance(approx, PiecewiseConstantField)
    edges = approx.grid.t if pc else approx.times
    t0 = edges[:-1]
    pts, wts = gauss_points(t0, edges[1:])
    samples = np.vstack([pts.T, t0, edges[1:]])          # (7, intervals)
    right = np.zeros_like(samples) if pc else (samples - t0) / np.diff(edges)
    n, nt, S = M_h.shape[0], len(exact_terms), len(samples)
    theta = np.moveaxis(np.reshape([th(samples.ravel()) for th, _ in
                                    exact_terms], (nt,) + samples.shape), 0, 2)
    per_chunk = max(1, min(CHUNK_ENTRIES // (S * n),
                           isqrt(CHUNK_ENTRIES // S) - nt - 1))
    G = np.reshape([g for _, g in exact_terms], (nt, n))
    last = len(edges) - 1 - pc       # a PC field's terminal value is unused
    MG, Mv = G @ M_h, M_h @ approx.values[0]
    l1 = l2sq = linf = 0.0
    for lo in range(0, samples.shape[1], per_chunk):
        c = min(per_chunk, samples.shape[1] - lo)
        r, j = nt + c + 1, np.arange(c)
        coef = np.zeros((S, c, r))
        coef[..., :nt] = theta[:, lo:lo + c]
        coef[:, j, nt + j] = right[:, lo:lo + c] - 1.0
        coef[:, j, nt + j + 1] = -right[:, lo:lo + c]
        V = approx.values[np.minimum(np.arange(lo, lo + c + 1), last)]
        MV = np.vstack([Mv] + [M_h @ v for v in V[1:]])
        err = coef.reshape(-1, r) @ np.vstack([G, V])
        gauss, w = err[:-2 * c], wts[lo:lo + c].T.ravel()
        l2sq += float(w @ np.einsum("ri,ri->r", gauss, coef[:-2].reshape(
            -1, r) @ np.vstack([MG, MV])))
        np.abs(err, out=err)
        l1 += float(w @ (gauss @ mesh.lumped_weights))
        linf = max(linf, float(err.max(initial=0.0)))
        Mv = MV[-1]
    return {"L1": l1, "L2": float(np.sqrt(max(l2sq, 0.0))), "Linf": linf}


@dataclass
class ConvergenceRow:
    level: int
    M: int
    k: float
    err: dict
    eoc: dict


def eoc_table(entries):
    """Attach observed orders to (level, M, k, err-dict) entries.

    eoc = log(e_prev / e_cur) / log(k_prev / k_cur); the first row and any
    row with a non-positive error on either side gets None.
    """
    rows = []
    for i, (level, M, k, err) in enumerate(entries):
        eoc = {}
        for key in err:
            if i == 0:
                eoc[key] = None
                continue
            e_prev = entries[i - 1][3][key]
            k_prev = entries[i - 1][2]
            if e_prev > 0 and err[key] > 0 and k_prev != k:
                eoc[key] = float(np.log(e_prev / err[key])
                                 / np.log(k_prev / k))
            else:
                eoc[key] = None
        rows.append(ConvergenceRow(level, M, float(k), dict(err), eoc))
    return rows


@dataclass
class StudyResult:
    problem: str
    n_per_side: int
    threshold: float
    levels: list
    tables: dict = field(default_factory=dict)
    iterations: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.failures


def _exact_pairs(mesh, terms):
    return [(t.theta, interpolate(mesh, t.profile)) for t in terms]


def _study(problem, levels, n_per_side, threshold, tables, setup, verbose):
    """Set-up and level loop shared by the studies: ``setup(dp, mesh)``,
    called once, returns ``solve(grid)``, which returns (control or None,
    state, adjoint, sweeps).  A level whose solve raises FixedPointError,
    NonFiniteSweepError or LinAlgError is recorded in ``failures`` (sweeps
    None unless the error carries a report) and the next level runs.
    Every table in ``tables`` is built, even empty."""
    if any(M < 2 for M in levels) or any(
            a >= b for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels need at least 2 time intervals each and "
                         f"must increase strictly, got {list(levels)}")
    mesh = build_mesh(n_per_side)
    M_h, K_h = mass_matrix(mesh), stiffness_matrix(mesh)
    dp = discretize_problem(problem, mesh, M_h, K_h)
    ex = problem.exact
    y_pairs = _exact_pairs(mesh, ex.y)
    p_pairs = _exact_pairs(mesh, ex.p)
    solve = setup(dp, mesh)

    entries = {key: [] for key in tables}
    result = StudyResult(problem.name, n_per_side, threshold, list(levels))
    for level, M in enumerate(levels, start=1):
        grid = uniform_grid(problem.T, M)
        tic = time.perf_counter()
        try:
            u, y, p, sweeps = solve(grid)
        except (FixedPointError, NonFiniteSweepError,
                np.linalg.LinAlgError) as exc:
            result.failures[M] = f"{type(exc).__name__}: {exc}"
            report = getattr(exc, "report", None)
            result.iterations.append(report.iterations if report else None)
            result.wall_times.append(time.perf_counter() - tic)
            continue
        errs = {
            "state": field_error_norms(y_pairs, y, mesh, M_h),
            "state_projected": field_error_norms(
                y_pairs, dual_linear_projection(y, grid), mesh, M_h),
            "adjoint": field_error_norms(p_pairs, p, mesh, M_h),
        }
        if u is not None:
            errs["control"] = control_norms((ex.u_funcs, ex.u_breaks), u,
                                            problem.T)
        for key in entries:
            entries[key].append((level, M, grid.k_max, errs[key]))
        result.iterations.append(sweeps)
        result.wall_times.append(time.perf_counter() - tic)
        if verbose:
            print(f"  M={M}: " + (f"{sweeps} sweeps, " if sweeps else "")
                  + f"{tables[0]} L2 {errs[tables[0]]['L2']:.3e}")
    result.tables = {key: eoc_table(rows) for key, rows in entries.items()}
    return result


def run_study(problem, levels, n_per_side=65, threshold=1e-5, verbose=False):
    """Optimal-control convergence study over a list of interval counts.

    Solves the full fixed-point problem per level and tabulates control,
    state, post-processed state, and adjoint errors with observed orders.
    Solver failures are recorded per level and remaining levels continue.
    """
    def setup(dp, mesh):
        def solve(grid):
            r = fixed_point_solve(dp, grid, threshold=threshold)
            return r.control, r.state, r.adjoint, r.iterations
        return solve
    return _study(problem, levels, n_per_side, threshold, TABLES, setup,
                  verbose)


def run_state_study(problem, levels, n_per_side=65, verbose=False):
    """Pure discretization study without the optimizer.

    Solves the state equation (and the adjoint equation for the problem's
    chosen right-hand side) per level; tabulates raw, post-processed and
    adjoint errors.  Used for manufactured problems.
    """
    def setup(dp, mesh):
        h_terms = discretize_terms(mesh, problem.exact.p_rhs)

        def solve(grid):
            cache = StepMatrixCache(dp.M_h, dp.K_h)
            y_k = solve_state(dp.M_h, dp.K_h, grid, dp.source_terms, dp.y0,
                              cache=cache)
            p_k = solve_adjoint(dp.M_h, dp.K_h, grid, terms=h_terms,
                                cache=cache)
            return None, y_k, p_k, 0
        return solve
    return _study(problem, levels, n_per_side, 0.0, TABLES[1:], setup,
                  verbose)
