"""Spans and counts recorded from outside the program.

The tracer replaces a module-level name (say ``svdgcl.model.spmm``) with a
wrapper that times each call, so every caller that looks the name up in
that module is traced and the program itself is not edited. A span's self
time is its duration minus the time of the spans it encloses. Spans opened
with ``absorb=True`` trace none of the wrapped calls they make, so their
self time covers all their work (an eval-mode forward keeps its products).

A name that a later version of the program no longer has is listed in
``absent`` and its layer reads as absent, not as an error.
"""
from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.captured: dict = {}
        self.absent: list = []
        self._open: list = []  # [span index, child seconds]
        self._absorbing = 0
        self._patched: list = []

    def call(self, name: str, fn, args=(), kwargs=None, absorb: bool = False):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        if self._absorbing:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(None)
        self._open.append([index, 0.0])
        self._absorbing += absorb
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._absorbing -= absorb
            _, child = self._open.pop()
            self.spans[index] = (name, start, end, parent)
            self.self_s[name] += end - start - child
            self.calls[name] += 1
            if self._open:
                self._open[-1][1] += end - start

    def wrap(self, module_name: str, attr: str, name: str, absorb: bool = False, after=None):
        """Trace every call made through module_name.attr.

        after(tracer, result, args, kwargs), if given, records counts once
        the span has closed.
        """
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, self.wrapped(original, name, absorb, after))
        self._patched.append((module, attr, original))

    def wrapped(self, fn, name: str, absorb: bool = False, after=None):
        """fn, traced as a span called name."""

        def wrapper(*args, **kwargs):
            out = self.call(name, fn, args, kwargs, absorb)
            if after is not None and not self._absorbing:
                after(self, out, args, kwargs)
            return out

        return wrapper

    def unwrap(self):
        """Put every wrapped name back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a bare call: the median over repeats
    of the difference, per call, between calling an empty function through
    a wrapper and calling it directly."""

    def empty():
        return None

    traced = Tracer().wrapped(empty, "calibration")
    costs = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            empty()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            traced()
        costs.append((perf_counter() - start - bare) / calls)
    return statistics.median(costs)
