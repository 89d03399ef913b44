"""In-memory span tracing of quadndr's public functions, installed from outside.

The package imports functions by name (``cli`` and ``deadreckon`` hold their
own references to ``predict``, ``mechanize_series`` and so on), so patching a
function only in its defining module would miss those call sites. The tracer
therefore replaces every reference to a traced function in every ``quadndr``
module namespace and puts the originals back when it is uninstalled.

Each call records a span: name, start, end and the index of the enclosing
span. Optional counters run after the call, outside the span's own interval, with
the call's arguments by parameter name and its result, and add named counts
(bytes, windows, GFLOP, ...) at the same boundary.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "quadndr"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.iteration = 0
        self.missing: list[str] = []
        self.counter_errors: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self, targets: dict) -> None:
        """Wrap each ``"module.function"`` in ``targets`` (value: counter or
        None) at every module-level reference inside the package. Names the
        package no longer has are listed in ``missing``."""
        modules = self._modules()
        by_name = {m.__name__: m for m in modules}
        for qualname, counter in targets.items():
            mod_name, _, fn_name = qualname.rpartition(".")
            original = getattr(by_name.get(f"{PACKAGE}.{mod_name}"), fn_name, None)
            if not callable(original):
                self.missing.append(qualname)
                continue
            wrapper = self._wrap(qualname, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn, counter):
        tracer = self
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                try:
                    counter(tracer, name, signature.bind(*args, **kwargs).arguments, result)
                except (KeyError, TypeError, AttributeError, OSError) as exc:
                    tracer.counter_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    # -- aggregation ------------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            kids[span[3]].append(i)
        return kids

    def summary(self) -> dict[str, dict]:
        """Per function: calls, total_s, self_s and ms_p50 over all spans.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because calls are sequential.
        """
        kids = self.children()
        durations: dict[str, list[float]] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            duration = end - start
            covered = sum(self.spans[k][2] - self.spans[k][1] for k in kids.get(i, ()))
            durations[name].append(duration)
            self_s[name] += duration - covered
        return {
            name: {
                "calls": len(d),
                "total_s": sum(d),
                "self_s": self_s[name],
                "ms_p50": 1000.0 * statistics.median(d),
            }
            for name, d in durations.items()
        }

    def descendants_named(self, root_name: str, name: str) -> int:
        """Number of spans called ``name`` below any span called ``root_name``."""
        kids = self.children()
        found = 0
        stack = [i for i, s in enumerate(self.spans) if s[0] == root_name]
        while stack:
            for k in kids.get(stack.pop(), ()):
                found += self.spans[k][0] == name
                stack.append(k)
        return found
