"""Span tracing of halpernlp's public functions, from outside the program.

``Tracer.installed()`` wraps every public function the benchmark measures at
every binding callers use: a function is replaced in each loaded
``halpernlp`` module that holds it (``halpernlp.mappings.resolvent`` as well
as ``halpernlp.operators.resolvent``), and methods are replaced on the
classes that define them.  Each call records a span: name, start, end,
parent span, and for some functions up to two counts taken from the
result (inner iterations and failures, or bytes written).
Spans stay in memory; ``layer_metrics`` turns them into per-layer numbers.

A layer's self time is its span's duration minus the time covered by its
direct child spans.  ``total_s`` sums the spans of one name that have no
ancestor of the same name, so nested calls (``parse_config`` calling
``config_from_dict``) are not counted twice.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import halpernlp.driver as driver
import halpernlp.experiments as experiments
import halpernlp.geometry as geometry
import halpernlp.mappings as mappings
import halpernlp.operators as operators
import halpernlp.schedules as schedules
import halpernlp.sequences as sequences
import halpernlp.sets as sets


def _iters_and_failed(args, kwargs, result):
    return result.inner_iterations, 0 if result.converged else 1


def _trace_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return Path(path).stat().st_size, 0


# (span name, owner, attribute).  A module owner means the function is
# replaced at every binding; a class owner means the method is replaced on
# that class.
_FUNCTIONS = [
    ("operators.resolvent", operators, "resolvent"),
    ("operators.duality_map_jacobian", operators, "duality_map_jacobian"),
    ("sets.generalized_projection", sets, "generalized_projection"),
    ("driver.halpern_step", driver, "halpern_step"),
    ("schedules.validate", schedules, "validate_anchor_weights"),
    ("schedules.validate", schedules, "validate_resolvent_radii"),
    ("schedules.validate", schedules, "validate_blend_weights"),
    ("experiments.parse", experiments, "parse_config"),
    ("experiments.parse", experiments, "config_from_dict"),
    ("experiments.write_trace_csv", experiments, "write_trace_csv"),
    ("sequences", sequences, "verify_example_claims"),
    ("sequences", sequences, "mainge_tau"),
    ("sequences", sequences, "eventually_increasing_tau"),
    ("sequences", sequences, "xu_recursion"),
]
# span name -> (extractor of up to two counts per call, their metric names)
_COUNTERS = {
    "operators.resolvent": (_iters_and_failed, ("inner_iters", "failed")),
    "sets.generalized_projection": (_iters_and_failed, ("inner_iters", "failed")),
    "experiments.write_trace_csv": (_trace_bytes, ("bytes",)),
}
# names whose total_s is reported; nested spans of the same name count once
_TOTALS = (
    "operators.resolvent",
    "sets.generalized_projection",
    "schedules.validate",
    "experiments.parse",
    "experiments.write_trace_csv",
    "sequences",
)
_GEOMETRY = ("duality_map", "inverse_duality_map", "norm", "dual_norm", "lyapunov", "check")
_SET_CLASSES = (sets.ConvexSet, sets.WholeSpace, sets.HalfSpace, sets.Box, sets.EuclideanBall, sets.AffineSet)
_MAP_CLASSES = (mappings.ResolventMap, mappings.ProjectionMap, mappings.BlendMap)


def _method_targets():
    out = [(f"geometry.{m}", geometry.LpSpace, m) for m in _GEOMETRY]
    for cls in _SET_CLASSES:
        for m in ("euclidean_project", "contains"):
            if m in vars(cls):
                out.append((f"sets.{m}", cls, m))
    out += [("mappings.apply", cls, "apply") for cls in _MAP_CLASSES]
    return out


NAMES = sorted({t[0] for t in _FUNCTIONS + _method_targets()})


class Tracer:
    def __init__(self):
        self._ids = {name: i for i, name in enumerate(NAMES)}
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count_a = array("d")
        self.count_b = array("d")
        self._stack = [-1]

    def _wrap(self, name, fn):
        sid = self._ids[name]
        counters = _COUNTERS.get(name, (None,))[0]
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(sid)
            tracer.parent.append(tracer._stack[-1])
            tracer.count_a.append(0.0)
            tracer.count_b.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
            if counters is not None:
                tracer.count_a[idx], tracer.count_b[idx] = counters(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every measured function; restore the originals on exit."""
        undo = []
        modules = [m for n, m in sys.modules.items() if n == "halpernlp" or n.startswith("halpernlp.")]
        for name, owner, attr in _FUNCTIONS:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for name, cls, attr in _method_targets():
            original = vars(cls)[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def spans(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "dur": np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float),
            "count_a": np.frombuffer(self.count_a, dtype=float).copy(),
            "count_b": np.frombuffer(self.count_b, dtype=float).copy(),
        }


def _total(sp: dict, sid: int) -> float:
    """Summed duration of spans named sid with no ancestor of the same name."""
    name, parent, dur = sp["name"], sp["parent"], sp["dur"]
    total = 0.0
    for i in np.flatnonzero(name == sid):
        j = parent[i]
        while j >= 0 and name[j] != sid:
            j = parent[j]
        if j < 0:
            total += float(dur[i])
    return total


def layer_metrics(sp: dict) -> dict:
    """Per-layer metrics, by their benchmark names, of one traced pass or set-up."""
    ids = {name: i for i, name in enumerate(NAMES)}
    name, parent, dur = sp["name"], sp["parent"], sp["dur"]
    has_parent = parent >= 0
    child = np.zeros(name.size)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child

    def sel(n):
        return name == ids[n]

    out = {}
    for n in NAMES:
        out[f"{n}.calls"] = int(np.count_nonzero(sel(n)))
        out[f"{n}.self_s"] = float(self_s[sel(n)].sum())
    for n in _TOTALS:
        out[f"{n}.total_s"] = _total(sp, ids[n])
    for n, (_, labels) in _COUNTERS.items():
        for label, counts in zip(labels, (sp["count_a"], sp["count_b"])):
            out[f"{n}.{label}"] = float(counts[sel(n)].sum())
    steps = out["driver.halpern_step.calls"]
    out["geometry.J_per_step"] = out["geometry.duality_map.calls"] / steps if steps else 0.0

    # the split of a driver step, measured at its direct children
    step = sel("driver.halpern_step")
    under_step = has_parent & np.isin(parent, np.flatnonzero(step))
    apply_s = float(dur[under_step & sel("mappings.apply")].sum())
    set_ids = [ids[n] for n in NAMES if n.startswith("sets.")]
    project_s = float(dur[under_step & np.isin(name, set_ids)].sum())
    out["driver.halpern_step.apply_s"] = apply_s
    out["driver.halpern_step.project_s"] = project_s
    out["driver.halpern_step.diagnose_s"] = float(dur[step].sum()) - apply_s - project_s
    return out
