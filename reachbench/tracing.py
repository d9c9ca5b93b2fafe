"""Per-layer spans recorded from outside the library.

Each traced entry point is replaced, at every module-level name that binds
it inside the ``datareach`` package, by a wrapper that records one span:
name, start, end, parent span and a few counts read from the arguments or
the result.  Replacing every binding (not just the defining module's) is what
catches callers that imported a function by name, e.g. ``sets`` importing
``lp_solve`` or ``reach`` importing ``support``.  Spans stay in memory; the
caller turns them into per-layer numbers once the run is over.
"""

import functools
import math
import sys
import time

import numpy as np

# LP purposes: the sets function that issued the LP.
LP_PURPOSES = ("support", "is_empty", "contains_point")


def _lp_counts(args, kwargs):
    problem = args[0] if args else kwargs["problem"]
    a_eq = problem.a_eq
    rows = 0 if a_eq is None else int(a_eq.shape[0])
    nnz = 0 if a_eq is None else int(a_eq.nnz if hasattr(a_eq, "nnz") else np.count_nonzero(a_eq))
    return {"vars": int(np.size(problem.c)), "rows": rows, "nnz": nnz}


def _volume_counts(args, kwargs):
    z = args[0] if args else kwargs["z"]
    return {"subsets": math.comb(z.num_generators, z.dim) if z.num_generators >= z.dim else 0}


def _reach_counts(result):
    final = result.steps[-1].fragments
    return {
        "fragments": len(final),
        "generators_final": sum(f.set.num_generators for f in final),
        "constraints_final": sum(getattr(f.set, "num_constraints", 0) for f in final),
    }


# (defining module, function, span name, counts from args, counts from result)
TARGETS = (
    ("datareach.linalg", "lp_solve", "linalg.lp_solve", _lp_counts, None),
    ("datareach.sets", "support", "sets.support", None, None),
    ("datareach.sets", "is_empty", "sets.is_empty", None, None),
    ("datareach.sets", "contains_point", "sets.contains_point", None, None),
    ("datareach.sets", "interval_hull", "sets.interval_hull", None, None),
    ("datareach.sets", "project_polygon", "sets.project_polygon", None, None),
    ("datareach.sets", "volume", "sets.volume", _volume_counts, None),
    ("datareach.reach", "propagate_lti", "reach.propagate", None, _reach_counts),
    ("datareach.reach", "propagate_pwa", "reach.propagate", None, _reach_counts),
    ("datareach.reach", "certify_lti", "reach.certify", None, None),
    ("datareach.reach", "certify_pwa", "reach.certify", None, None),
    ("datareach.rightinv", "row_norm_right_inverse", "rightinv.row_norm", None,
     lambda res: {"iterations": int(res.iterations)}),
    ("datareach.rightinv", "pinv_right_inverse", "rightinv.pinv", None, None),
    ("datareach.inputdesign", "design_input", "inputdesign.design_input", None, None),
    ("datareach.modelset", "build_model_sets", "modelset.build_model_sets", None,
     lambda b: {"kernel_rows": int(b.cmz.A.shape[0])}),
    ("datareach.harness", "collect_data", "harness.collect_data", None, None),
    ("datareach.harness", "simulate_batch", "harness.simulate_batch", None, None),
    ("datareach.harness", "run_lti_experiment", "harness.study", None, None),
    ("datareach.harness", "run_pwa_experiment", "harness.study", None, None),
    ("datareach.harness", "_emit_common", "harness.emit", None, None),
    ("datareach.harness", "_write_table", "harness.emit", None, None),
)

# span names whose calls and self time are reported
LAYERS = (
    "linalg.lp_solve", "sets.support", "sets.is_empty", "sets.contains_point",
    "sets.interval_hull", "sets.project_polygon", "sets.volume", "reach.propagate",
    "reach.certify", "rightinv.row_norm", "rightinv.pinv", "inputdesign.design_input",
    "modelset.build_model_sets", "harness.collect_data", "harness.simulate_batch",
    "harness.study",
)


class TraceError(RuntimeError):
    """A traced name is missing, or the trace does not add up."""


class Tracer:
    """Span recorder; a span is [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False
        self._undo = []

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span of its own (used for the benchmark's own root)."""
        return self._wrap(name, fn, None, None)(*args, **kwargs)

    def _wrap(self, name, fn, count_args, count_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            counts = count_args(args, kwargs) if count_args else {}
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, counts]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                # an error that carries its best iterate (RightInverseError)
                # is counted from that iterate
                if count_result and getattr(err, "best", None) is not None:
                    counts.update(count_result(err.best))
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count_result:
                counts.update(count_result(out))
            return out

        return wrapper

    def install(self):
        """Wrap every target at each module-level binding in the package.

        Raises TraceError when a target no longer exists where it is
        expected, so a rename cannot silently zero a layer.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "datareach" or n.startswith("datareach."))]
        for mod_name, attr, name, count_args, count_result in TARGETS:
            home = sys.modules.get(mod_name)
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                raise TraceError(f"traced entry point {mod_name}.{attr} does not exist")
            wrapper = self._wrap(name, original, count_args, count_result)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, value in reversed(self._undo):
            setattr(mod, key, value)
        self._undo.clear()


def _lp_purpose(spans, i):
    p = spans[i][3]
    while p >= 0:
        name = spans[p][0]
        if name.startswith("sets.") and name[5:] in LP_PURPOSES:
            return name[5:]
        p = spans[p][3]
    return None


def layer_metrics(spans, n_ops):
    """Per-operation layer numbers from the spans of n_ops traced operations.

    Every `.s` is self time: span time minus the time of its direct
    children.  Raises TraceError if an LP was issued by no known sets
    function, so the LP counts by purpose add up to lp_solve.calls.
    """
    dur = [s[2] - s[1] for s in spans]
    self_time = list(dur)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            self_time[s[3]] -= d
    calls = {name: 0 for name in LAYERS}
    secs = {name: 0.0 for name in LAYERS + ("harness.emit", "bench.op")}
    counts = {k: 0 for k in ("vars", "rows", "nnz", "subsets", "iterations", "kernel_rows",
                             "fragments", "generators_final", "constraints_final")}
    lp_calls = {p: 0 for p in LP_PURPOSES}
    lp_secs = {p: 0.0 for p in LP_PURPOSES}
    for i, s in enumerate(spans):
        name = s[0]
        if name in calls:
            calls[name] += 1
        secs[name] = secs.get(name, 0.0) + self_time[i]
        for key, value in s[4].items():
            if name == "reach.propagate" and _inside(spans, i, "reach.certify"):
                continue  # certify repeats the propagation; count the study's own sets
            counts[key] += value
        if name == "linalg.lp_solve":
            purpose = _lp_purpose(spans, i)
            if purpose is None:
                raise TraceError("an LP was issued outside support, is_empty and contains_point")
            lp_calls[purpose] += 1
            lp_secs[purpose] += self_time[i]

    n = max(n_ops, 1)
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (calls[name] / n, "count")
        out[f"{name}.s"] = (secs[name] / n, "s")
    n_lp = calls["linalg.lp_solve"]
    out["linalg.lp_solve.ms_per_call"] = (1e3 * secs["linalg.lp_solve"] / n_lp if n_lp else 0.0, "ms")
    for key in ("vars", "rows", "nnz"):
        out[f"linalg.lp_solve.{key}_mean"] = (counts[key] / n_lp if n_lp else 0.0, "count")
    for p in LP_PURPOSES:
        out[f"linalg.lp.{p}.calls"] = (lp_calls[p] / n, "count")
        out[f"linalg.lp.{p}.s"] = (lp_secs[p] / n, "s")
    out["sets.volume.subsets"] = (counts["subsets"] / n, "count")
    out["rightinv.row_norm.iterations"] = (counts["iterations"] / n, "count")
    out["modelset.kernel_rows"] = (counts["kernel_rows"] / n, "count")
    for key in ("fragments", "generators_final", "constraints_final"):
        out[f"reach.{key}"] = (counts[key] / n, "count")
    out["harness.emit.s"] = (secs["harness.emit"] / n, "s")
    out["bench.op.s"] = (secs["bench.op"] / n, "s")
    return out


def _inside(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False
