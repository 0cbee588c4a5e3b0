"""Span tracer that wraps the public functions of the gentleq modules.

The tracer lives in the benchmark, not in the package: it replaces each public
function of the traced modules with a wrapper that records one span per call
(function, parent span, query id, start, end) in flat in-memory arrays.  The
spans are written out only when the run ends, so recording costs one list
append per field and two clock reads per call.

A module that did ``from .core import canonical_form`` holds its own
reference, so every ``gentleq`` namespace that bound a traced function by name
is rebound, the package namespace included.  The package attribute
``gentleq.orbit`` is the ``orbit`` function, so modules are looked up in
``sys.modules``.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import json
import sys
import time

MODULES = ("core", "invariant", "moves", "families", "orbit", "cli")


def _public_functions(module):
    """Public callables defined in ``module``: plain functions and lru caches."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Records a span for every call of a wrapped function."""

    def __init__(self, measures: dict | None = None):
        """``measures`` maps a function name to a callable applied to each of
        its results; the sums land in ``results``."""
        self.measures = dict(measures or {})
        self.results = {name: 0 for name in self.measures}
        self.names: list[str] = []
        self.fids = array.array("i")
        self.parents = array.array("i")
        self.queries = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        # bitmask of the functions open around each span (the span itself
        # excluded), so recursion and nesting can be resolved afterwards
        self.outer_masks: list[int] = []
        self.query = 0
        self._stack = [-1]
        self._mask_stack = [0]
        self._originals: list[tuple[object, str, object]] = []

    def install(self, package: str = "gentleq") -> None:
        """Wrap every public function of MODULES in every package namespace."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules.get("%s.%s" % (package, short))
            if module is None:
                continue
            for name, fn in sorted(_public_functions(module).items()):
                wrappers[id(fn)] = (fn, self._wrap(fn, "%s.%s" % (short, name)))
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        bit = 1 << fid
        clock = time.perf_counter
        fids, parents, queries = self.fids, self.parents, self.queries
        starts, ends, outer_masks = self.starts, self.ends, self.outer_masks
        stack, mask_stack = self._stack, self._mask_stack
        tracer = self
        measure = self.measures.get(name)

        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            queries.append(tracer.query)
            mask = mask_stack[-1]
            outer_masks.append(mask)
            stack.append(i)
            mask_stack.append(mask | bit)
            ends.append(0.0)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                if measure is not None:
                    tracer.results[name] += measure(out)
                return out
            finally:
                ends[i] = clock()
                stack.pop()
                mask_stack.pop()

        functools.update_wrapper(traced, fn)
        return traced

    def summary(self) -> dict:
        """Per function: calls, self time and total time in seconds.

        Total time counts only the outermost call of a recursive chain; self
        time is the span minus the spans of its direct children.
        """
        n = len(self.fids)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(n):
            fid = self.fids[i]
            st = stats[self.names[fid]]
            dur = self.ends[i] - self.starts[i]
            st["calls"] += 1
            st["self_s"] += dur - child[i]
            if not self.outer_masks[i] >> fid & 1:
                st["total_s"] += dur
        return stats

    def nested_calls(self, inner: str, outer: str) -> int:
        """Calls of ``inner`` made while a call of ``outer`` was open (0 if
        either function does not exist)."""
        if inner not in self.names or outer not in self.names:
            return 0
        fi, bit = self.names.index(inner), 1 << self.names.index(outer)
        return sum(1 for i in range(len(self.fids))
                   if self.fids[i] == fi and self.outer_masks[i] & bit)

    def write(self, path: str) -> None:
        """Write the spans, gzipped: a JSON header naming the fields, then one
        tab-separated line per span, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps({"fields": ["span", "fn", "parent", "query",
                                                "start_s", "end_s"]}) + "\n")
            for i in range(len(self.fids)):
                handle.write("%d\t%s\t%d\t%d\t%.7f\t%.7f\n" % (
                    i, self.names[self.fids[i]], self.parents[i], self.queries[i],
                    self.starts[i] - t0, self.ends[i] - t0))
