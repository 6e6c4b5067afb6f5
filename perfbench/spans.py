"""Span tracing of kwlab's public functions, installed from outside the package.

`install` replaces each traced function with a wrapper that records a span:
name, start, end, parent span and run id, plus an optional work count taken
from the arguments or the result.  The wrapper is put in place of every
reference a kwlab module holds (so `kwlab.flow.b_field`, imported from
`kwlab.torus`, is traced too), on the classes for methods, and in the suite
registry.  Spans are kept in memory; `write_spans` saves them at the end.

`rollup` turns the spans of one run id into the per-layer metrics.  Self
time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, RUN, WORK = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# work counts, taken from argument shapes and results


def _deriv_bytes(args, result):
    # bytes read plus bytes written, computed from array sizes
    return args[1].nbytes + result.nbytes


def _comm_pairs(args, result):
    import numpy as np

    return math.prod(np.broadcast_shapes(np.shape(args[0])[:-2], np.shape(args[1])[:-2]))


def _points(args, result):
    import numpy as np

    return math.prod(np.shape(args[2])[:-1])


def _field_points(args, result):
    import numpy as np

    return int(np.broadcast(args[1], args[2]).size)


def _flow_steps(args, result):
    return len(result.times) - 1


def _n_fail(args, result):
    return sum(1 for c in result if c.status == "fail")


# (module, function, span name, work count)
FUNCTIONS = [
    ("kwlab.torus", "comm", "torus.comm", None),
    ("kwlab.torus", "dot", "torus.dot", None),
    ("kwlab.torus", "b_field", "torus.b_field", None),
    ("kwlab.torus", "curl_cov", "torus.curl_cov", None),
    ("kwlab.torus", "star_wedge", "torus.star_wedge", None),
    ("kwlab.torus", "div_cov", "torus.div_cov", None),
    ("kwlab.torus", "cs_functional", "torus.cs_functional", None),
    ("kwlab.flow", "run_flow", "flow.run_flow", _flow_steps),
    ("kwlab.flow", "lojasiewicz_fit", "flow.lojasiewicz_fit", None),
    ("kwlab.operator", "comm", "operator.comm", _comm_pairs),
    ("kwlab.operator", "covariant_grads", "operator.covariant_grads", None),
    ("kwlab.operator", "apply_D", "operator.apply_D", _points),
    ("kwlab.operator", "apply_D_dagger", "operator.apply_D_dagger", None),
    ("kwlab.operator", "x_blocks", "operator.x_blocks", None),
    ("kwlab.operator", "bochner_check", "operator.bochner_check", None),
    ("kwlab.operator", "duality_gap", "operator.duality_gap", None),
    ("kwlab.operator", "pythagoras_gap", "operator.pythagoras_gap", None),
    ("kwlab.model", "fields", "model.fields", _field_points),
    ("kwlab.model", "evaluate", "model.evaluate", None),
    ("kwlab.model", "verify_reduced_eqs", "model.verify_reduced_eqs", None),
    ("kwlab.model", "verify_properties", "model.verify_properties", None),
    ("kwlab.spectral", "hardy_suite", "spectral.hardy_suite", None),
    ("kwlab.spectral", "hemisphere_eig0", "spectral.hemisphere_eig0", None),
    ("kwlab.spectral", "rayleigh_min", "spectral.rayleigh_min",
     lambda args, r: r["n_mesh"]),
    ("kwlab.spectral", "radial_ode_solve", "spectral.radial_ode_solve",
     lambda args, r: r.sol.nfev),
    ("kwlab.spectral", "radial_admissible", "spectral.radial_admissible", None),
    ("kwlab.modes", "kuranishi_w", "modes.kuranishi_w",
     lambda args, r: r[1]["iterations"]),
    ("kwlab.modes", "linearized_decay", "modes.linearized_decay", None),
    ("kwlab.modes", "positive_spectrum_field", "modes.positive_spectrum_field", None),
    ("kwlab.clifford", "relation_checks", "clifford.relation_checks", None),
    ("kwlab.cli", "main", "cli.main", None),
]

# (module, class, method, span name, work count)
METHODS = [
    ("kwlab.torus", "TorusField", "deriv", "torus.deriv", _deriv_bytes),
    ("kwlab.reporting", "SuiteReport", "to_json", "reporting.to_json", None),
] + [
    ("kwlab.backgrounds", cls, meth, "backgrounds.eval", None)
    for cls in ("TrivialBackground", "NahmBackground", "ModelBackground",
                "TorusTrigBackground")
    for meth in ("A_at", "a_at", "curvature_at", "dcov_a_at")
]


def _replace_references(orig, new) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "kwlab" or mod_name.startswith("kwlab.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    """Trace every function named above, every public function of
    kwlab.algebra, and each suite in the registry behind `run_suite`."""
    import importlib

    import kwlab.algebra
    import kwlab.cli  # noqa: F401  (loads every module)
    import kwlab.suites

    targets = list(FUNCTIONS)
    for name, fn in vars(kwlab.algebra).items():
        if (inspect.isfunction(fn) and fn.__module__ == "kwlab.algebra"
                and not name.startswith("_")):
            targets.append(("kwlab.algebra", name, f"algebra.{name}", None))
    for mod_name, attr, span, work in targets:
        orig = getattr(importlib.import_module(mod_name), attr)
        _replace_references(orig, tracer.wrap(span, orig, work))
    for mod_name, cls_name, attr, span, work in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        if attr in vars(cls):
            setattr(cls, attr, tracer.wrap(span, vars(cls)[attr], work))
    for name, fn in kwlab.suites.SUITES.items():
        kwlab.suites.SUITES[name] = tracer.wrap(f"suites.{name}", fn, _n_fail)


# ---------------------------------------------------------------------------
# roll-up into per-layer metrics

SUITE_NAMES = ("algebra", "clifford", "model", "operator", "spectral")  # the sweep's suites
STEP_COUNTED = ("b_field", "curl_cov", "star_wedge")

# metric name -> (unit, span name, field); field is calls, self_s, total_s or work
SPAN_METRICS = {
    "torus.deriv.calls": ("count", "torus.deriv", "calls"),
    "torus.deriv.self_s": ("s", "torus.deriv", "self_s"),
    "torus.deriv.computed_bytes": ("B", "torus.deriv", "work"),
    "torus.comm.calls": ("count", "torus.comm", "calls"),
    "torus.comm.self_s": ("s", "torus.comm", "self_s"),
    "torus.dot.self_s": ("s", "torus.dot", "self_s"),
    "torus.b_field.self_s": ("s", "torus.b_field", "self_s"),
    "torus.curl_cov.self_s": ("s", "torus.curl_cov", "self_s"),
    "torus.star_wedge.self_s": ("s", "torus.star_wedge", "self_s"),
    "torus.div_cov.self_s": ("s", "torus.div_cov", "self_s"),
    "torus.cs_functional.self_s": ("s", "torus.cs_functional", "self_s"),
    "flow.run_flow.self_s": ("s", "flow.run_flow", "self_s"),
    "flow.lojasiewicz_fit.self_s": ("s", "flow.lojasiewicz_fit", "self_s"),
    "operator.comm.calls": ("count", "operator.comm", "calls"),
    "operator.comm.pairs": ("count", "operator.comm", "work"),
    "operator.comm.self_s": ("s", "operator.comm", "self_s"),
    "operator.covariant_grads.self_s": ("s", "operator.covariant_grads", "self_s"),
    "operator.apply_D.points": ("count", "operator.apply_D", "work"),
    "operator.apply_D.self_s": ("s", "operator.apply_D", "self_s"),
    "operator.apply_D_dagger.self_s": ("s", "operator.apply_D_dagger", "self_s"),
    "operator.x_blocks.self_s": ("s", "operator.x_blocks", "self_s"),
    "operator.bochner_check.total_s": ("s", "operator.bochner_check", "total_s"),
    "operator.duality_gap.total_s": ("s", "operator.duality_gap", "total_s"),
    "operator.pythagoras_gap.total_s": ("s", "operator.pythagoras_gap", "total_s"),
    "backgrounds.eval.calls": ("count", "backgrounds.eval", "calls"),
    "backgrounds.eval.self_s": ("s", "backgrounds.eval", "self_s"),
    "model.fields.calls": ("count", "model.fields", "calls"),
    "model.fields.points": ("count", "model.fields", "work"),
    "model.fields.self_s": ("s", "model.fields", "self_s"),
    "model.evaluate.calls": ("count", "model.evaluate", "calls"),
    "model.verify_reduced_eqs.total_s": ("s", "model.verify_reduced_eqs", "total_s"),
    "model.verify_properties.total_s": ("s", "model.verify_properties", "total_s"),
    "spectral.hardy_suite.total_s": ("s", "spectral.hardy_suite", "total_s"),
    "spectral.hemisphere_eig0.total_s": ("s", "spectral.hemisphere_eig0", "total_s"),
    "spectral.rayleigh_min.total_s": ("s", "spectral.rayleigh_min", "total_s"),
    "spectral.rayleigh_min.n_mesh": ("count", "spectral.rayleigh_min", "work"),
    "spectral.radial_ode_solve.total_s": ("s", "spectral.radial_ode_solve", "total_s"),
    "spectral.radial_ode_solve.nfev": ("count", "spectral.radial_ode_solve", "work"),
    "spectral.radial_admissible.total_s": ("s", "spectral.radial_admissible", "total_s"),
    "modes.kuranishi_w.total_s": ("s", "modes.kuranishi_w", "total_s"),
    "modes.kuranishi_w.iterations": ("count", "modes.kuranishi_w", "work"),
    "modes.linearized_decay.total_s": ("s", "modes.linearized_decay", "total_s"),
    "modes.positive_spectrum_field.total_s": ("s", "modes.positive_spectrum_field", "total_s"),
    "algebra.l_decompose.calls": ("count", "algebra.l_decompose", "calls"),
    "clifford.relation_checks.total_s": ("s", "clifford.relation_checks", "total_s"),
    "reporting.to_json.total_s": ("s", "reporting.to_json", "total_s"),
    "cli.main.self_s": ("s", "cli.main", "self_s"),
}
for _s in SUITE_NAMES:
    SPAN_METRICS[f"suites.{_s}.total_s"] = ("s", f"suites.{_s}", "total_s")
    SPAN_METRICS[f"suites.{_s}.n_fail"] = ("count", f"suites.{_s}", "work")

# metrics derived from several spans
DERIVED_UNITS = {
    "algebra.self_s": "s",
    "flow.step_ms": "ms",
    **{f"torus.{fn}.calls_per_step": "count" for fn in STEP_COUNTED},
}

UNITS = {**{k: v[0] for k, v in SPAN_METRICS.items()}, **DERIVED_UNITS}
COUNT_UNITS = ("count", "B")


def _span_stats(spans, idx):
    """Per span name: calls, self time, outermost inclusive time, work."""
    child = defaultdict(float)
    for i in idx:
        p = spans[i][PARENT]
        if p >= 0:
            child[p] += spans[i][END] - spans[i][START]
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0})
    for i in idx:
        s = spans[i]
        dur = s[END] - s[START]
        st = stats[s[NAME]]
        st["calls"] += 1
        st["self_s"] += dur - child[i]
        st["work"] += s[WORK]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:  # no enclosing span of the same name: count it once
            st["total_s"] += dur
    return stats


def _calls_per_step(spans, idx):
    """Median count, over RK4 steps, of each STEP_COUNTED call.

    Each step of run_flow records one state and so calls cs_functional once;
    a step's calls are those that start between two consecutive
    cs_functional starts inside one run_flow span.
    """
    windows = []
    for i in idx:
        if spans[i][NAME] != "flow.run_flow":
            continue
        end, window = spans[i][END], None
        j = i + 1
        while j < len(spans) and spans[j][START] < end:
            name = spans[j][NAME]
            if name == "torus.cs_functional":
                if window is not None:
                    windows.append(window)
                window = defaultdict(int)
            if window is not None:
                window[name] += 1
            j += 1
    return {f"torus.{fn}.calls_per_step":
            statistics.median_low(w[f"torus.{fn}"] for w in windows) if windows else 0
            for fn in STEP_COUNTED}


def rollup(spans, run) -> dict:
    """Every per-layer metric of one run id (absent spans give zeros)."""
    idx = [i for i, s in enumerate(spans) if s[RUN] == run]
    stats = _span_stats(spans, idx)
    out = {}
    for metric, (_, span, fld) in SPAN_METRICS.items():
        out[metric] = stats[span][fld] if span in stats else 0
    out["algebra.self_s"] = sum(v["self_s"] for k, v in stats.items()
                                if k.startswith("algebra."))
    rf = stats.get("flow.run_flow")
    out["flow.step_ms"] = 1e3 * rf["total_s"] / rf["work"] if rf and rf["work"] else 0.0
    out.update(_calls_per_step(spans, idx))
    return out


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                 "end": s[END], "parent": s[PARENT], "run": s[RUN],
                                 "work": s[WORK]}) + "\n")
