"""Outside-in tracing of dfakit's public functions.

Every public function (and public method of a public class) defined in a
dfakit module is replaced, in every dfakit module namespace that binds
it, by a wrapper that records a span: name, start, end and parent. So a
call from ``dfakit.cli`` into ``estimators.dfa`` and from there into
``core.weight_matrix`` is caught however the caller imported the
function. Spans stay in memory until :meth:`Tracer.write`.

The layer of a span is the short name of the module that defines the
function (``core``, ``weights``, ``models``, ...). A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "bench.op"


def _dfakit_modules():
    pkg = importlib.import_module("dfakit")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"dfakit.{info.name}")
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "dfakit" or name.startswith("dfakit.")]


def _is_traceable(obj) -> bool:
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        # each span: [name, start_ns, end_ns, parent_index, op_index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._measure_alloc = False
        self.alloc_peaks: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.cached: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self):
        """Root span around one benchmark operation."""
        self._op += 1
        idx = self._enter(ROOT_SPAN)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, fn, name: str):
        tracer = self
        estimator = name.startswith("estimators.")

        def traced(*args, **kwargs):
            outermost = (estimator and tracer._measure_alloc
                         and not tracemalloc.is_tracing())
            if outermost:
                tracemalloc.start()
            idx = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
                if outermost:
                    tracer.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def allocation_pass(self, fn) -> None:
        """Call fn with tracemalloc on around each outermost estimators call.

        tracemalloc slows every allocation, so it runs in this extra pass
        only; the spans recorded meanwhile are dropped.
        """
        keep = len(self.spans)
        self._measure_alloc = True
        try:
            fn()
        finally:
            self._measure_alloc = False
            del self.spans[keep:]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public dfakit function in every namespace binding it."""
        wrappers: dict[int, object] = {}
        for mod in _dfakit_modules():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                origin = getattr(obj, "__module__", "") or ""
                if not origin.startswith("dfakit."):
                    continue
                layer = origin.split(".", 1)[1]
                if inspect.isclass(obj):
                    if obj.__module__ == mod.__name__:
                        self._wrap_methods(obj, layer)
                    continue
                if not _is_traceable(obj):
                    continue
                if id(obj) not in wrappers:
                    name = f"{layer}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                    if hasattr(obj, "cache_info"):
                        self.cached[name] = obj
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def _wrap_methods(self, cls, layer: str) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._restore.append((cls, attr, obj))
                setattr(cls, attr,
                        self._wrap(obj, f"{layer}.{cls.__name__}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op}) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time in ns."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_ns"] += end - start
            rec["self_ns"] += end - start - child[i]
        return dict(out)


def wrapper_cost_ns(calls: int = 20000) -> float:
    """Time one traced call adds, from a wrapped no-op function."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap(noop, "bench.noop")
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter_ns()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best
