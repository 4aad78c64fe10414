"""Spans around crnf's layers, recorded from outside the package.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper
that records a span (name, start, end, parent) and a call count.  A
function that another crnf module imported by name is rebound there
too, so calls through either name are seen.  ``uninstall`` puts every
original back.  A span's self time is its duration minus the time its
child spans cover.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time

#: span name -> (module, attribute path) of the function it wraps
TARGETS = {
    "series.mul": [("crnf.series", "MixedSeries.__mul__"), ("crnf.series", "HoloSeries.__mul__")],
    "series.diff": [("crnf.series", "MixedSeries.diff"), ("crnf.series", "HoloSeries.diff")],
    "series.subs": [
        ("crnf.series", "MixedSeries.subs"),
        ("crnf.series", "HoloSeries.subs_holo"),
        ("crnf.series", "HoloSeries.eval_mixed"),
    ],
    "maps.apply_map": [("crnf.maps", "apply_map")],
    "maps.to_regular": [("crnf.maps", "to_regular")],
    "maps.inverse": [("crnf.maps", "FormalMap.inverse")],
    "maps.compose": [("crnf.maps", "FormalMap.compose")],
    "full_nf.normal_form": [("crnf.full_nf", "normal_form")],
    "full_nf.solve_L": [("crnf.full_nf", "solve_L")],
    "lapack.svd": [("numpy.linalg", "svd")],
    "lapack.lu_factor": [("scipy.linalg", "lu_factor")],
    "lapack.lu_solve": [("scipy.linalg", "lu_solve")],
    "normal_space.basis": [("crnf.normal_space", "normal_slice_real_basis")],
    "normal_space.project_normal": [("crnf.normal_space", "project_normal")],
    "partial_nf.partial_nf": [("crnf.partial_nf", "partial_nf")],
    "tensors.cr_frame": [("crnf.tensors", "cr_frame")],
    "tensors.E_spaces": [("crnf.tensors", "E_spaces")],
    "tensors.psi": [("crnf.tensors", "psi")],
    "tensors.tensors_report": [("crnf.tensors", "tensors_report")],
    "equivalence.equivalent_to_degree": [("crnf.equivalence", "equivalent_to_degree")],
    "equivalence.matched_normalization": [("crnf.equivalence", "matched_normalization")],
}

#: per-layer metrics that are counters kept by a wrapper; every other
#: metric is ``<span>_calls`` (a call count) or ``<span>_s`` (self time)
COUNTERS = ("series.mul_pairs", "full_nf.system_dim_sum")


def _resolve(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.self_time = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts = dict.fromkeys(COUNTERS, 0)
        # spans in columns: name index, parent span (-1 at top), start, end
        self.span_name = array.array("l")
        self.span_parent = array.array("l")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = []  # [span id, time covered by children]
        self._undo = []
        self.missing = []

    def _wrap(self, idx, fn):
        stack = self._stack
        self_time, calls = self.self_time, self.calls
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                self_time[idx] += t1 - t0 - frame[1]
                calls[idx] += 1
                if stack:
                    stack[-1][1] += t1 - t0

        return traced

    def _wrapper_for(self, name, fn):
        traced = self._wrap(self.names.index(name), fn)
        counts = self.counts
        if name == "series.mul":
            # only series-by-series products are products; scaling by a
            # number passes straight through
            @functools.wraps(fn)
            def mul(a, b):
                if not hasattr(b, "coeffs"):
                    return fn(a, b)
                counts["series.mul_pairs"] += len(a.coeffs) * len(b.coeffs)
                return traced(a, b)

            return mul
        if name == "full_nf.normal_form":

            @functools.wraps(fn)
            def normal_form(*args, **kwargs):
                res = traced(*args, **kwargs)
                counts["full_nf.system_dim_sum"] += sum(d["dim"] for d in res.diagnostics)
                return res

            return normal_form
        return traced

    def install(self):
        crnf_modules = [m for k, m in sys.modules.items() if k == "crnf" or k.startswith("crnf.")]
        for name, places in TARGETS.items():
            for module, path in places:
                try:
                    owner, attr = _resolve(module, path)
                    orig = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module}.{path}")
                    continue
                wrapped = self._wrapper_for(name, orig)
                self._rebind(owner, attr, orig, wrapped)
                if isinstance(owner, type):
                    continue
                # the same function imported by name into other modules
                for mod in crnf_modules:
                    for other, value in list(vars(mod).items()):
                        if value is orig and mod is not owner:
                            self._rebind(mod, other, orig, wrapped)

    def _rebind(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def value(self, metric):
        """The value of a per-layer metric, by the rule at COUNTERS."""
        if metric in self.counts:
            return self.counts[metric]
        for suffix, column in (("_calls", self.calls), ("_s", self.self_time)):
            span = metric[: -len(suffix)]
            if metric.endswith(suffix) and span in self.names:
                return column[self.names.index(span)]
        raise KeyError(f"no span or counter gives the per-layer metric {metric!r}")

    def write(self, path, t0):
        """Write the spans as JSON; times are seconds since ``t0``."""
        spans = [
            [sid, self.span_parent[sid], self.names[self.span_name[sid]],
             self.span_start[sid] - t0, self.span_end[sid] - t0]
            for sid in range(len(self.span_start))
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "parent", "name", "start_s", "end_s"],
                       "missing": self.missing, "spans": spans}, fh)
