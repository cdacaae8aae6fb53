"""Spans and counters around the public functions of each ccode3d module.

The tracer wraps functions from the outside: nothing in ccode3d changes.  A
wrapped function is replaced at every name it is bound under in the package
(cli and codes import names directly), so each call records one span: name,
start, end, parent span and operation index.  Spans stay in memory and are
written once, at the end, as a numpy archive.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("gf", "poly", "idempotents", "ring3d", "linalg", "codes", "distance", "cli")
# methods traced besides the public module-level functions: name -> (module, class, attribute)
METHODS = {
    "poly.divmod": ("poly", "Poly", "__divmod__"),
    "poly.mul": ("poly", "Poly", "__mul__"),
    "ring3d.mul": ("ring3d", "RingElement3D", "__mul__"),
    "ring3d.shift": ("ring3d", "RingElement3D", "shift"),
    "ring3d.from_axis_polys": ("ring3d", "RingElement3D", "from_axis_polys"),
}
# counters read from the arguments or results of one traced function: counter -> function
COUNTER_SOURCES = {
    "poly.factor_binomial.distinct_inputs": "poly.factor_binomial",
    "linalg.rref.cells": "linalg.rref",
    "codes.sweep_specs": "codes.sign_grid_sweep_report",
    "distance.candidates_tested": "distance.min_distance",
    "distance.weight_checked": "distance.min_distance",
    "cli.result_bytes": "cli.canonical_json",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.factor_inputs: set = set()
        self.op = -1
        self._stack: list[list] = []
        self._cached: dict[str, object] = {}

    def _wrap(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_op.append(self.op)
            frame = [idx, 0.0]
            stack.append(frame)
            span_end.append(0.0)
            t0 = perf_counter()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span_end[idx] = t1
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of the ccode3d modules and the METHODS."""
        pkg = importlib.import_module("ccode3d")
        mods = {m: importlib.import_module(f"ccode3d.{m}") for m in MODULES}
        namespaces = [pkg, *mods.values()]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                name = f"{short}.{attr}"
                if hasattr(obj, "cache_info"):
                    self._cached[name] = obj
                wrapped = self._wrap(name, obj, self._after(name))
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, bound, wrapped)
        for name, (short, cls_name, attr) in METHODS.items():
            cls = getattr(mods[short], cls_name, None)
            raw = inspect.getattr_static(cls, attr, None) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(name, raw))

    def unwrapped(self, metrics) -> list[str]:
        """The metrics among `metrics` whose function install() did not wrap.
        A wrapped function that is never called still gives its metrics (0)."""
        missing = []
        for metric in metrics:
            fn, _, kind = metric.rpartition(".")
            if metric in COUNTER_SOURCES:
                found = COUNTER_SOURCES[metric] in self.names
            elif kind in ("calls", "self_s"):
                found = fn in self.names
            elif kind == "misses":
                found = fn in self._cached
            else:
                found = False
            if not found:
                missing.append(metric)
        return missing

    def _after(self, name: str):
        counters = self.counters
        if name == "poly.factor_binomial":
            def after(args, result):
                field, s, alpha = args[:3]
                self.factor_inputs.add((field.p, s, alpha % field.p))
        elif name == "linalg.rref":
            def after(args, result):
                counters["linalg.rref.cells"] += np.atleast_2d(args[0]).size
        elif name == "codes.sign_grid_sweep_report":
            def after(args, result):
                counters["codes.sweep_specs"] += result.get("specs", 0)
        elif name == "distance.min_distance":
            def after(args, result):
                counters["distance.candidates_tested"] += result.candidates_tested
                counters["distance.weight_checked"] += result.weight_checked
        elif name == "cli.canonical_json":
            def after(args, result):
                counters["cli.result_bytes"] += len(result.encode("utf-8"))
        else:
            return None
        return after

    def metric_values(self) -> dict[str, float]:
        """Totals by metric name: <name>.calls, <name>.self_s and the counters."""
        out: dict[str, float] = dict(self.counters)
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
            out[f"{name}.self_s"] = self.self_s[name]
        out["poly.factor_binomial.distinct_inputs"] = len(self.factor_inputs)
        for name, fn in self._cached.items():
            out[f"{name}.misses"] = fn.cache_info().misses
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
