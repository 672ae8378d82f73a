"""Span tracing of mergelimits from outside the package.

``Tracer.installed()`` replaces each function and method named in TARGETS
with a wrapper that records one span per call: name, start, end, parent
span and the id of the op it belongs to. A function is replaced everywhere
it is bound (the module attribute and every ``from ... import`` binding in
the package); a method is replaced on its class. Leaving the context puts
every original back, so untraced ops run the program's own code.

Counts are kept at the same boundaries by per-target hooks. Spans live in
compact arrays in memory and are written out with ``Tracer.save`` at the
end. Per-layer metrics (LAYER_METRICS) are normalised per traced op.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _file_bytes(pos: int, name: str):
    def hook(tr, span, args, kwargs, result):
        tr.count(span + ".bytes", os.path.getsize(_arg(args, kwargs, pos, name)))
    return hook


def _haar(tr, span, args, kwargs, result):
    dim = _arg(args, kwargs, 0, "dim")
    tr.count(span + ".elements", dim * dim)
    parent = tr.frame()
    if parent is not None and tr.names[parent[0]] == "geometry.kinematics_transition":
        tr.count(span + ".columns_built", dim)
        tr.count(span + ".columns_used", _arg(parent[1], parent[2], 2, "k"))


def _task_built(tr, span, args, kwargs, result):
    # An id is unique among live objects, so the latest task built at an
    # address is the one a later loss call on that address reads.
    tr.tasks[id(args[0])] = tr.tasks_built
    tr.tasks_built += 1


def _task_basis_read(tr, span, args, kwargs, result):
    serial = tr.tasks.get(id(args[0]))
    if serial is not None:
        tr.tasks_read.add(serial)


def _trials(tr, span, args, kwargs, result):
    tr.count(span + ".trials", _arg(args, kwargs, 3, "trials"))


def _bytes_in(tr, span, args, kwargs, result):
    tr.count(span + ".bytes_in", sum(np.asarray(e).nbytes for e in _arg(args, kwargs, 0, "experts")))


def _values(tr, span, args, kwargs, result):
    tr.count(span + ".values", len(_arg(args, kwargs, 0, "singular_values")))


# (module under mergelimits, qualified name, hook run after each call or None).
TARGETS = [
    ("cli", "main", None),
    ("experiments", "gen_quadratic_task", None),
    ("experiments", "gen_experts", None),
    ("experiments", "emit_report", _file_bytes(2, "path")),
    ("experiments", "run_saturation", None),
    ("experiments", "run_kinematics", None),
    ("experiments", "run_rht_study", None),
    ("geometry", "haar_orthogonal", _haar),
    ("geometry", "QuadraticTask.__init__", _task_built),
    ("geometry", "QuadraticTask.loss", _task_basis_read),
    ("geometry", "QuadraticTask.sample_sublevel", _task_basis_read),
    ("geometry", "kinematics_transition", _trials),
    ("geometry", "statdim_cone_mc", None),
    ("geometry", "marginal_gains", None),
    ("geometry", "width_jensen", None),
    ("geometry", "redundancy_bound_check", None),
    ("merge", "merge_linear", _bytes_in),
    ("merge", "termination_check", None),
    ("rht", "coverage_proxy", None),
    ("rht", "TinyNetSpec.forward", None),
    ("rht", "apply_rht", None),
    ("rht", "RHTParams.__init__", None),
    ("subspace", "pca_explained", None),
    ("subspace", "band_counts", _values),
    ("tensorio", "write_pvec", _file_bytes(1, "path")),
    ("tensorio", "read_pvec", _file_bytes(0, "path")),
    ("tensorio", "write_matrix", _file_bytes(1, "path")),
    ("tensorio", "read_matrix", _file_bytes(0, "path")),
    ("tensorio", "as_pvec", None),
    ("tensorio", "RngStream.generator", None),
]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self._stack: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.tasks: dict[int, int] = {}
        self.tasks_built = 0
        self.tasks_read: set[int] = set()
        self.missing: list[str] = []
        self._wrappers: dict[str, object] = {}

    def count(self, key: str, value: float) -> None:
        self.counts[key] += value

    def frame(self):
        """(name id, args, kwargs) of the innermost open span, or None."""
        return self._stack[-1][1:] if self._stack else None

    def _wrap(self, span: str, fn, hook):
        nid = len(self.names)
        self.names.append(span)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr._stack[-1][0] if tr._stack else -1)
            tr.op.append(tr.op_id)
            tr.end.append(0.0)
            tr._stack.append((idx, nid, args, kwargs))
            tr.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = time.perf_counter()
                tr._stack.pop()
            if hook is not None:
                hook(tr, span, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every target inside the block; restore the originals after."""
        saved = []
        try:
            for module, qualname, hook in TARGETS:
                span = f"{module}.{qualname}"
                owner = importlib.import_module(f"mergelimits.{module}")
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    # A later version may drop a target; its metrics then read 0.
                    if span not in self.missing:
                        self.missing.append(span)
                    continue
                if span not in self._wrappers:
                    self._wrappers[span] = self._wrap(span, original, hook)
                wrapper = self._wrappers[span]
                if path:
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not mod_name.startswith("mergelimits"):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, name, original))
                            setattr(mod, name, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write all spans; self time is derived from these on load."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span name: inclusive seconds, self seconds and call count."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        # Self time is duration minus the part covered by direct children;
        # calls are sequential, so children of one span never overlap.
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        n = len(self.names)
        incl = np.bincount(a["name_id"], weights=dur, minlength=n)
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=n)
        calls = np.bincount(a["name_id"], minlength=n)
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, name in enumerate(self.names):
            out[name] = {"s": float(incl[i]), "self_s": float(self_s[i]), "calls": int(calls[i])}
        return out


# Per-layer metrics: (name, unit, better, kind, span or counter). Kinds:
# s / self_s / calls are per traced op from the span summary; count is a
# counter per traced op; rate is a counter's bytes over its span's seconds
# in MB/s; the two ratios are whole-run ratios of useful work to work done.
LAYER_METRICS = [
    ("cli.main.self_s", "s/op", "lower", "self_s", "cli.main"),
    ("experiments.gen_quadratic_task.s", "s/op", "lower", "s", "experiments.gen_quadratic_task"),
    ("experiments.gen_experts.s", "s/op", "lower", "s", "experiments.gen_experts"),
    ("experiments.emit_report.s", "s/op", "lower", "s", "experiments.emit_report"),
    ("experiments.emit_report.bytes", "B/op", "lower", "count", "experiments.emit_report.bytes"),
    ("experiments.run_saturation.self_s", "s/op", "lower", "self_s", "experiments.run_saturation"),
    ("experiments.run_kinematics.self_s", "s/op", "lower", "self_s", "experiments.run_kinematics"),
    ("experiments.run_rht_study.self_s", "s/op", "lower", "self_s", "experiments.run_rht_study"),
    ("geometry.haar_orthogonal.s", "s/op", "lower", "s", "geometry.haar_orthogonal"),
    ("geometry.haar_orthogonal.calls", "count/op", "lower", "calls", "geometry.haar_orthogonal"),
    ("geometry.haar_orthogonal.elements", "count/op", "lower", "count",
     "geometry.haar_orthogonal.elements"),
    ("geometry.haar_orthogonal.columns_used_ratio", "ratio", "higher", "columns_ratio",
     "geometry.haar_orthogonal"),
    ("geometry.QuadraticTask.init_s", "s/op", "lower", "s", "geometry.QuadraticTask.__init__"),
    ("geometry.QuadraticTask.basis_read_ratio", "ratio", "higher", "basis_ratio",
     "geometry.QuadraticTask"),
    ("geometry.QuadraticTask.loss.s", "s/op", "lower", "s", "geometry.QuadraticTask.loss"),
    ("geometry.QuadraticTask.loss.calls", "count/op", "lower", "calls",
     "geometry.QuadraticTask.loss"),
    ("geometry.kinematics_transition.s", "s/op", "lower", "s", "geometry.kinematics_transition"),
    ("geometry.kinematics_transition.calls", "count/op", "lower", "calls",
     "geometry.kinematics_transition"),
    ("geometry.kinematics_transition.trials", "count/op", "lower", "count",
     "geometry.kinematics_transition.trials"),
    ("geometry.statdim_cone_mc.s", "s/op", "lower", "s", "geometry.statdim_cone_mc"),
    ("geometry.marginal_gains.s", "s/op", "lower", "s", "geometry.marginal_gains"),
    ("geometry.width_jensen.s", "s/op", "lower", "s", "geometry.width_jensen"),
    ("geometry.redundancy_bound_check.s", "s/op", "lower", "s", "geometry.redundancy_bound_check"),
    ("merge.merge_linear.s", "s/op", "lower", "s", "merge.merge_linear"),
    ("merge.merge_linear.calls", "count/op", "lower", "calls", "merge.merge_linear"),
    ("merge.merge_linear.bytes_in", "B/op", "lower", "count", "merge.merge_linear.bytes_in"),
    ("merge.termination_check.s", "s/op", "lower", "s", "merge.termination_check"),
    ("rht.coverage_proxy.s", "s/op", "lower", "s", "rht.coverage_proxy"),
    ("rht.coverage_proxy.calls", "count/op", "lower", "calls", "rht.coverage_proxy"),
    ("rht.TinyNetSpec.forward.calls", "count/op", "lower", "calls", "rht.TinyNetSpec.forward"),
    ("rht.apply_rht.s", "s/op", "lower", "s", "rht.apply_rht"),
    ("rht.apply_rht.calls", "count/op", "lower", "calls", "rht.apply_rht"),
    ("rht.RHTParams.init_s", "s/op", "lower", "s", "rht.RHTParams.__init__"),
    ("rht.RHTParams.calls", "count/op", "lower", "calls", "rht.RHTParams.__init__"),
    ("subspace.pca_explained.s", "s/op", "lower", "s", "subspace.pca_explained"),
    ("subspace.band_counts.s", "s/op", "lower", "s", "subspace.band_counts"),
    ("subspace.band_counts.values", "count/op", "lower", "count", "subspace.band_counts.values"),
    *[
        entry
        for fn in ("write_pvec", "read_pvec", "write_matrix", "read_matrix")
        for entry in (
            (f"tensorio.{fn}.s", "s/op", "lower", "s", f"tensorio.{fn}"),
            (f"tensorio.{fn}.bytes", "B/op", "lower", "count", f"tensorio.{fn}.bytes"),
            (f"tensorio.{fn}.mb_per_s", "MB/s", "higher", "rate", f"tensorio.{fn}"),
        )
    ],
    ("tensorio.as_pvec.s", "s/op", "lower", "s", "tensorio.as_pvec"),
    ("tensorio.as_pvec.calls", "count/op", "lower", "calls", "tensorio.as_pvec"),
    ("tensorio.RngStream.generator.calls", "count/op", "lower", "calls",
     "tensorio.RngStream.generator"),
]

# Measured by the traced run itself rather than read from spans.
TRACE_METRICS = [
    ("trace.overhead_s", "s/op", "lower"),
    ("trace.spans", "count/op", "lower"),
]


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Evaluate LAYER_METRICS over ``n_ops`` traced ops."""
    summ = tracer.summary()
    counts = tracer.counts
    out = {}
    for name, _unit, _better, kind, key in LAYER_METRICS:
        if kind in ("s", "self_s", "calls"):
            value = summ[key][kind] / n_ops
        elif kind == "count":
            value = counts.get(key, 0.0) / n_ops
        elif kind == "rate":
            secs = summ[key]["s"]
            value = counts.get(key + ".bytes", 0.0) / secs / 1e6 if secs > 0 else 0.0
        elif kind == "columns_ratio":
            built = counts.get(key + ".columns_built", 0.0)
            value = counts.get(key + ".columns_used", 0.0) / built if built else 0.0
        elif kind == "basis_ratio":
            built = tracer.tasks_built
            value = len(tracer.tasks_read) / built if built else 0.0
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[name] = float(value)
    return out
