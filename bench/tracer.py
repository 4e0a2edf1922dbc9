"""Spans around the program's layer boundaries, installed from outside.

A layer is a module of ``ckgraph``.  :meth:`Tracer.install` wraps every public
function a layer defines, plus the methods in ``METHODS``, and rebinds the
wrapper under every name that points at the original anywhere in the package:
``pipeline.k_invariants``, ``ktheory.smith_normal_form``,
``intmatrix.verify_snf``, ``moves.graph_fingerprint``, the package root, and
so on.  Calls between functions of one module go through the module globals,
so they are caught as well.

A span records its name, its parent span, the operation it belongs to, and
its start and end.  Spans are kept in flat arrays while the run lasts and
written out when it ends; per-layer self time is derived from them.  The
functions in ``COUNTED`` run once per rewrite transition, so they get a call
counter instead of a span; those in ``UNWRAPPED`` run once per neighbour
probe and are left alone.  The time of both stays in the caller's span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("graph", "intmatrix", "ktheory", "monoid", "moves", "pipeline", "randgen")
METHODS = {
    "graph": [("Graph", "build")],
    "intmatrix": [("IntMatrix", "mul")],
    "ktheory": [("_K0Engine", "class_of")],
}
COUNTED = {"monoid.expand_at", "monoid.contract_at"}
UNWRAPPED = {"graph.is_regular", "monoid.expansion_profile"}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.calls: Counter[str] = Counter()
        # results seen by post-hooks: largest Smith transform entry, mvn verdicts
        self.max_transform_bits = 0
        self.verdicts: Counter[str] = Counter()

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, post=None):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end, stack = self.span_start, self.span_end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_op.append(self.op)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                span_start[idx] = start
                stack.pop()
            if post is not None:
                post(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _post(self, name: str):
        if name == "intmatrix.smith_normal_form":
            return self._note_transform
        if name == "monoid.mvn_equivalent":
            return lambda result: self.verdicts.update((result.verdict,))
        return None

    def _note_transform(self, snf) -> None:
        for m in (snf.u, snf.v):
            if m.entries:
                bits = max(max(m.entries), -min(m.entries)).bit_length()
                if bits > self.max_transform_bits:
                    self.max_transform_bits = bits

    def install(self) -> None:
        """Wrap every layer of the imported ``ckgraph`` package."""
        package = [m for n, m in list(sys.modules.items()) if n == "ckgraph" or n.startswith("ckgraph.")]
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            # a layer, class or method that is gone is skipped; its figures read 0
            module = sys.modules.get(f"ckgraph.{layer}")
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNWRAPPED:
                    continue
                wrap = self._counter(name, fn) if name in COUNTED else self._span(name, fn, self._post(name))
                replaced[id(fn)] = wrap
            for cls_name, method in METHODS.get(layer, ()):
                raw = vars(getattr(module, cls_name, object)).get(method)
                if raw is None:
                    continue
                cls = getattr(module, cls_name)
                if isinstance(raw, staticmethod):
                    setattr(cls, method, staticmethod(self._span(f"{layer}.{cls_name}.{method}", raw.__func__)))
                else:
                    setattr(cls, method, self._span(f"{layer}.{cls_name}.{method}", raw))
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

    # -- derived figures -------------------------------------------------------

    def layer_totals(self) -> dict[bool, dict]:
        """Totals over the spans of the ops (key ``False``) and of input
        generation (key ``True``, spans of op -1).

        Per span name: calls, inclusive and self seconds; per layer: self
        seconds, and seconds entered from another layer or from the benchmark.
        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly, since the run is one thread.
        """
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        totals = {
            generation: {key: Counter() for key in ("calls", "inclusive_s", "name_self_s", "self_s", "entered_s")}
            for generation in (False, True)
        }
        layer_of = [name.split(".", 1)[0] for name in self.names]
        for i in range(n):
            t = totals[self.span_op[i] < 0]
            name_id = self.span_name[i]
            name, layer = self.names[name_id], layer_of[name_id]
            dur = self.span_end[i] - self.span_start[i]
            t["calls"][name] += 1
            t["inclusive_s"][name] += dur
            t["name_self_s"][name] += dur - child[i]
            t["self_s"][layer] += dur - child[i]
            p = self.span_parent[i]
            if p < 0 or layer_of[self.span_name[p]] != layer:
                t["entered_s"][layer] += dur
        totals[False]["calls"].update(self.calls)
        return totals

    def write(self, path) -> None:
        """Every span as a CSV line: id, parent, op, name, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,op,name,start_s,end_s\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i},{self.span_parent[i]},{self.span_op[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )
