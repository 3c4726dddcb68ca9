"""Self-test of the benchmark's output checks and tracer.

Each check must pass on a correct input and fail on a deliberately wrong
one, so none of them passes vacuously.  Runs in a few seconds:

    python3 bench/test_checks.py
    python3 -m pytest -q bench/test_checks.py
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

# L2 errors of the ex2-study workload (example 2, nh=65, levels 8,16,32)
EX2_L2 = {"control": [1.351734e-2, 2.510071e-3, 6.477307e-4],
          "state": [1.126766e-1, 5.656137e-2, 2.831253e-2],
          "state_projected": [5.772708e-2, 1.738871e-2, 4.400767e-3],
          "adjoint": [4.842468e-2, 1.169374e-2, 2.905062e-3]}
EX2_M = [8, 16, 32]
# control L2 errors of the ex1-nh129 workload (example 1, nh=129, M=4,8)
EX1_CONTROL_L2 = [7.587754e-2, 1.847229e-2]


def table(Ms, T, errors):
    """CSV-like rows with L2 errors and their observed orders."""
    ks = [T / M for M in Ms]
    orders = [None] + checks.observed_orders(errors, ks)
    return [{"M": float(M), "k": k, "err_L2": e, "eoc_L2": o}
            for M, k, e, o in zip(Ms, ks, errors, orders)]


def doubled_finest(errors):
    return errors[:-1] + [2.0 * errors[-1]]


def test_band_rule_fails_on_doubled_finest_control_error():
    tables = {name: table(EX2_M, 0.5, errs) for name, errs in EX2_L2.items()}
    assert checks.band_failures(tables) == []
    tables["control"] = table(EX2_M, 0.5, doubled_finest(EX2_L2["control"]))
    assert checks.band_failures(tables)


def test_paper_values_and_orders_fail_on_doubled_finest_control_error():
    rows = table([4, 8], 0.1, EX1_CONTROL_L2)
    orders = [r["eoc_L2"] for r in rows[1:]]
    assert checks.paper_failures(rows) == []
    assert checks.order_failures("control", orders,
                                 checks.EOC_BANDS["control"]) == []
    rows = table([4, 8], 0.1, doubled_finest(EX1_CONTROL_L2))
    orders = [r["eoc_L2"] for r in rows[1:]]
    assert checks.paper_failures(rows)
    assert checks.order_failures("control", orders,
                                 checks.EOC_BANDS["control"])


def test_identity_fails_on_one_changed_byte():
    csv = (b"level,M,k,err_L1,err_L2,err_Linf,eoc_L1,eoc_L2,eoc_Linf\n"
           b"1,8,0.0625,0.01,0.0135,0.02,,,\n")
    assert checks.identical_failures([{"control.csv": csv}] * 3) == []
    changed = bytearray(csv)
    changed[-8] ^= 1
    assert checks.identical_failures(
        [{"control.csv": csv}, {"control.csv": bytes(changed)}])
    assert checks.identical_failures([{"control.csv": csv}, {}])


def _small_sweeps():
    import parapt

    mesh = parapt.build_mesh(6)
    M_h, K_h = parapt.mass_matrix(mesh), parapt.stiffness_matrix(mesh)
    grid = parapt.graded_grid(0.5, 4, 2)
    g = parapt.interpolate(mesh, lambda x, y: np.sin(np.pi * x) * y)
    y0 = parapt.interpolate(mesh, lambda x, y: x * (1 - x) * y * (1 - y))
    term = parapt.RhsTerm(g, lambda t: np.exp(-np.asarray(t)) + t * t)
    y = parapt.solve_state(M_h, K_h, grid, [term], y0)
    p = parapt.solve_adjoint(M_h, K_h, grid, terms=[term])
    Md, Kd = checks.p1_matrices(mesh.nodes, mesh.triangles,
                                mesh.interior_index)
    pairs = [(term.temporal, term.spatial)]
    return (y.values, checks.space_time_state(Md, Kd, grid.t, pairs, y0),
            p.values, checks.space_time_adjoint(Md, Kd, grid.t, pairs))


def test_oracle_fails_on_field_perturbed_in_one_interval():
    y, y_ref, p, p_ref = _small_sweeps()
    assert checks.field_failures("state", y, y_ref) == []
    assert checks.field_failures("adjoint", p, p_ref) == []
    for got, ref in ((y, y_ref), (p, p_ref)):
        bad = got.copy()
        bad[2] *= 1.0 + 1e-7
        assert checks.field_failures("perturbed", bad, ref)


def test_tracer_wraps_every_binding_and_reports_absent_layers():
    import parapt

    tracer = spans.Tracer()
    tracer.install()
    bindings = {}                          # original -> wrappers, per module
    for name, mod in sys.modules.items():
        if name == "parapt" or name.startswith("parapt."):
            for fn in vars(mod).values():
                if hasattr(fn, "__wrapped_by_bench__"):
                    bindings.setdefault(fn.__wrapped_by_bench__, []).append(fn)
    assert max(len(w) for w in bindings.values()) >= 3   # e.g. cg_solve
    assert all(len(set(w)) == 1 for w in bindings.values())
    before = dict(vars(parapt))
    tracer.install()                       # idempotent: no double wrapping
    assert dict(vars(parapt)) == before

    lo = tracer.mark()
    _small_sweeps()
    phase = [(lo, tracer.mark())]
    table = dict(spans.STUDY_METRICS,
                 **{"gone.removed_s": ("time", ("gone.removed",))})
    values, absent = spans.layer_metrics(tracer, phase, table)
    assert "gone.removed_s" in absent and values["gone.removed_s"] == 0
    assert values["state.steps"] == 4 and values["adjoint.steps"] == 4
    assert values["state.solve_state_s"] > 0
    nested = 0
    for name, start, end, parent, _ in tracer.spans[lo:]:
        assert start <= end
        if parent >= 0:
            nested += 1
            assert tracer.spans[parent][1] <= start
            assert end <= tracer.spans[parent][2]
    assert nested > 0


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} checks self-tested")
