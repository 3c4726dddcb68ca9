"""Span tracing of the parapt modules, installed from outside the package.

``Tracer.install`` replaces every public function of every loaded
``parapt`` module by a wrapper, at each module name the function is bound
under (``cg_solve`` is wrapped in ``parapt.linalg``, ``parapt.state`` and
``parapt.adjoint`` alike, and all three bindings share one wrapper), plus
the ``StepMatrixCache.get`` method.  Each call records a span: name,
start, end, parent span, and for a few functions a count taken from the
return value (CG iterations, time steps, sweeps, clamp crossings, new
step-matrix keys).  Spans stay in memory until the run writes them out.

``layer_metrics`` turns the spans of one phase into the per-layer metrics.
A metric whose functions no longer exist in the program is reported as 0
and listed as absent, so a refactor that deletes a layer does not stop the
benchmark.
"""

import functools
import json
import statistics
import sys
import time
import types
import weakref


def _steps_of_field(result, args, kwargs):
    return len(result.values) - 1


def _clamp_crossings(result, args, kwargs):
    times = args[0] if args else kwargs["times"]
    return sum(len(b) for b in result.breaks) - result.dim * len(times)


# span name -> count taken from (result, args, kwargs)
COUNTERS = {
    "linalg.cg_solve": lambda r, a, k: r[1],
    "state.solve_state": _steps_of_field,
    "adjoint.solve_adjoint": _steps_of_field,
    "optimizer.fixed_point_solve": lambda r, a, k: r.iterations,
    "control.clamp_control": _clamp_crossings,
}


class Tracer:
    """Collects spans from wrapped parapt functions."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, count]
        self.wrapped = set()     # span names of the functions wrapped
        self.uncounted = set()   # names whose count hook no longer applies
        self._stack = []
        self._by_function = {}   # original function -> wrapper
        self._cache_keys = weakref.WeakKeyDictionary()

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                try:
                    rec[4] = count(result, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.uncounted.add(name)   # return value changed shape
            return result

        traced.__wrapped_by_bench__ = fn
        return traced

    def install(self):
        """Wrap the public functions of every loaded parapt module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "parapt" or n.startswith("parapt.")]
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_")
                        or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("parapt.")):
                    continue
                fn = getattr(fn, "__wrapped_by_bench__", fn)
                if fn not in self._by_function:
                    name = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
                    self._by_function[fn] = self._wrap(
                        name, fn, COUNTERS.get(name))
                    self.wrapped.add(name)
                setattr(mod, attr, self._by_function[fn])
        state = sys.modules.get("parapt.state")
        cache_cls = getattr(state, "StepMatrixCache", None)
        get = getattr(cache_cls, "get", None)
        if get is not None and not hasattr(get, "__wrapped_by_bench__"):
            cache_cls.get = self._wrap("state.StepMatrixCache.get", get,
                                       self._new_cache_key)
            self.wrapped.add("state.StepMatrixCache.get")

    def _new_cache_key(self, result, args, kwargs):
        """1 when this (cache, step size) key is requested for the first
        time, so the sum counts the distinct step matrices built."""
        cache, k = args[0], float(args[1] if len(args) > 1 else kwargs["k"])
        seen = self._cache_keys.setdefault(cache, set())
        if k in seen:
            return 0
        seen.add(k)
        return 1

    def mark(self):
        """Index of the next span; phases are ranges between marks."""
        return len(self.spans)


# metric -> (kind, span names); kinds: time (seconds in the outermost of
# the named spans), calls (number of spans), count (sum of span counts)
SETUP_METRICS = {
    "fem.assembly_s": ("time", ("fem.mass_matrix", "fem.stiffness_matrix")),
    "fem.interpolate_s": ("time", ("fem.interpolate",)),
    "problems.construct_s": ("time", ("problems.example1",
                                      "problems.example2",
                                      "problems.manufactured_smooth")),
    "optimizer.discretize_s": ("time", ("optimizer.discretize_problem",)),
}
STUDY_METRICS = {
    "state.solve_state_s": ("time", ("state.solve_state",)),
    "state.steps": ("count", ("state.solve_state",)),
    "adjoint.solve_adjoint_s": ("time", ("adjoint.solve_adjoint",)),
    "adjoint.steps": ("count", ("adjoint.solve_adjoint",)),
    "linalg.cg_solves": ("calls", ("linalg.cg_solve",)),
    "linalg.cg_iterations": ("count", ("linalg.cg_solve",)),
    "linalg.cg_solve_s": ("time", ("linalg.cg_solve",)),
    "linalg.matvec_calls": ("calls", ("linalg.matvec",)),
    "state.step_matrix_requests": ("calls", ("state.StepMatrixCache.get",)),
    "state.step_matrices_built": ("count", ("state.StepMatrixCache.get",)),
    "optimizer.solve_s": ("time", ("optimizer.fixed_point_solve",)),
    "optimizer.sweeps": ("count", ("optimizer.fixed_point_solve",)),
    "optimizer.self_s": ("self", ("optimizer.fixed_point_solve",)),
    "control.clamp_s": ("time", ("control.clamp_control",)),
    "control.clamp_breaks": ("count", ("control.clamp_control",)),
    "control.apply_B_adjoint_s": ("time", ("control.apply_B_adjoint",)),
    "control.control_norms_s": ("time", ("control.control_norms",)),
    "errors.field_error_norms_s": ("time", ("errors.field_error_norms",)),
    "errors.field_error_norms_calls": ("calls",
                                       ("errors.field_error_norms",)),
    "timegrid.dual_linear_projection_s": ("time",
                                          ("timegrid.dual_linear_projection",)),
    "cli.format_s": ("time", ("cli.csv_lines", "cli.markdown_lines",
                              "cli.summary_lines")),
}
# children of fixed_point_solve that optimizer.self_s leaves out
SELF_EXCLUDES = ("state.solve_state", "adjoint.solve_adjoint",
                 "control.clamp_control", "control.apply_B_adjoint")


def _value(spans, lo, hi, kind, names):
    names = set(names)
    picked = [i for i in range(lo, hi) if spans[i][0] in names]
    if kind == "calls":
        return len(picked)
    if kind == "count":
        return sum(spans[i][4] or 0 for i in picked)
    if kind == "self":
        child = {i: 0.0 for i in picked}
        for j in range(lo, hi):
            name, start, end, parent, _ = spans[j]
            if parent in child and name in SELF_EXCLUDES:
                child[parent] += end - start
        return sum(spans[i][2] - spans[i][1] - child[i] for i in picked)
    total = 0.0
    for i in picked:
        parent = spans[i][3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:               # outermost: no enclosing named span
            total += spans[i][2] - spans[i][1]
    return total


def layer_metrics(tracer, phases, table):
    """Median over phases (index ranges) of each metric in ``table``.

    Returns (values, absent): metrics none of whose functions the program
    has any more are 0 and named in ``absent``.
    """
    values, absent = {}, []
    for metric, (kind, names) in table.items():
        if not any(n in tracer.wrapped for n in names) or (
                kind == "count" and set(names) <= tracer.uncounted):
            values[metric] = 0
            absent.append(metric)
            continue
        per_phase = [_value(tracer.spans, lo, hi, kind, names)
                     for lo, hi in phases]
        values[metric] = statistics.median(per_phase)
    return values, absent


def dump(tracer, path, extra):
    """Write the spans column-wise (names interned) plus ``extra``."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    payload = dict(extra)
    payload["span_names"] = names
    payload["spans"] = {
        "name": [index[s[0]] for s in tracer.spans],
        "start": [s[1] for s in tracer.spans],
        "end": [s[2] for s in tracer.spans],
        "parent": [s[3] for s in tracer.spans],
        "count": [s[4] for s in tracer.spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
