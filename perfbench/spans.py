"""Span tracing of the lutc package, applied from outside the program.

`Tracer.install` (or entering the tracer as a context) replaces every
public function defined in a lutc module with a wrapper that records one
span per call: name, start, end and the span that was open when it was
called.  A function is often bound in several modules (`from .basis
import expand` puts `expand` in `model` and `trainer` too), so every
binding in every lutc module is replaced, or a call made through one of
them would escape the trace.  `uninstall` restores the originals.  Spans stay in memory until `summary` computes
per-function and per-module figures from them.

A function that a later version of lutc no longer has is simply absent
from the summary, so the metrics built on it read 0 calls and 0 seconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

# The layers of the pipeline: the modules of src/lutc.
LAYERS = ("cli", "data", "trainer", "basis", "model", "quantize", "tables",
          "netlist", "rtl")


def _rows(args, kwargs, pos, key):
    x = args[pos] if len(args) > pos else kwargs[key]
    return int(np.shape(x)[0])


def _entries(args, kwargs, result):
    return sum(int(t.entries.size) for layer in result for t in layer)


# Work counted where it happens: span name -> (counter, fn(args, kwargs, result)).
COUNTERS = {
    "trainer.forward": ("trainer.rows", lambda a, k, r: _rows(a, k, 1, "xb")),
    "netlist.simulate": ("netlist.simulate.rows", lambda a, k, r: _rows(a, k, 1, "inputs")),
    "tables.tabulate_model": ("tables.entries", _entries),
}


@dataclass
class FunctionStats:
    calls: int = 0
    s: float = 0.0  # inclusive time of calls not nested in a call of the same function
    self_s: float = 0.0  # time not covered by the spans of callees


@dataclass
class TraceSummary:
    functions: dict  # span name -> FunctionStats
    module_self_s: dict  # layer -> summed self time of its spans
    counters: dict
    n_spans: int
    covered_s: float  # summed self time of every span

    def fn(self, name: str) -> FunctionStats:
        return self.functions.get(name, FunctionStats())


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._spans: list = []  # (name index, start, end, parent span index)
        self._stack: list[int] = []
        self._patched: list = []  # (module, attribute, original)
        self.counters: dict[str, int] = {}

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = len(self._names)
        self._names.append(name)
        spans, stack, clock = self._spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, clock(), parent)
                stack.pop()
            if counter is not None:
                try:
                    n = counter[1](args, kwargs, result)
                except (IndexError, KeyError, TypeError, AttributeError):
                    n = 0  # the signature changed; count nothing rather than fail
                self.counters[counter[0]] = self.counters.get(counter[0], 0) + n
            return result

        return traced

    def install(self, package: str = "lutc") -> None:
        modules = [sys.modules[package]]
        for layer in LAYERS:
            try:
                modules.append(importlib.import_module(f"{package}.{layer}"))
            except ImportError:
                continue  # a refactor removed the module: its metrics read 0
        wrappers = {}  # id(original) -> wrapper, shared by every binding
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(package + "."):
                    continue
                if id(obj) not in wrappers:
                    name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> TraceSummary:
        spans = self._spans
        n = len(spans)
        if n:
            nid, start, end, parent = (np.array(c) for c in zip(*spans))
        else:
            nid = parent = np.zeros(0, dtype=np.int64)
            start = end = np.zeros(0)
        dur = end - start
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child_s[:n]

        # a span counts toward its function's inclusive time unless an
        # ancestor span belongs to the same function (recursion)
        nid_l, parent_l = nid.tolist(), parent.tolist()
        outermost = np.ones(n, dtype=bool)
        for i in range(n):
            p = parent_l[i]
            while p >= 0:
                if nid_l[p] == nid_l[i]:
                    outermost[i] = False
                    break
                p = parent_l[p]

        functions: dict[str, FunctionStats] = {}
        for k, name in enumerate(self._names):
            sel = nid == k
            if not sel.any():
                continue
            functions[name] = FunctionStats(
                calls=int(sel.sum()),
                s=float(dur[sel & outermost].sum()),
                self_s=float(self_s[sel].sum()),
            )
        module_self = {layer: 0.0 for layer in LAYERS}
        for name, st in functions.items():
            layer = name.split(".", 1)[0]
            module_self[layer] = module_self.get(layer, 0.0) + st.self_s
        return TraceSummary(functions=functions,
                            module_self_s=module_self, counters=dict(self.counters),
                            n_spans=n, covered_s=float(self_s.sum()))
