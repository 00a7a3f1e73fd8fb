"""Spans around the calls into chromabound's layers, for the traced run.

``Tracer.wrap(module, attr, span)`` replaces ``module.attr`` by a wrapper
that records one span per call: name, start, end and the span open when
it was called (its parent). Wrapping the name a caller imported, such as
``chromabound.bounds.polynomial_roots``, catches exactly the calls made
through that name. Spans live in flat arrays while the run goes and are
written out once at the end. A layer's self time is the sum of its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, span: str | None, count=None) -> None:
        """Record a span named ``span`` around every call of ``module.attr``.

        ``count(args, kwargs, result)``, when given, returns a pair
        (counter name, amount) added to ``counts`` after each call. With
        ``span`` None the wrapper only counts, so the callee's time stays
        in its caller's span.
        """
        fn = getattr(module, attr)
        key = f"{module.__name__}.{attr}"
        self.calls[key] = 0
        stack, calls, counts = self._stack, self.calls, self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[key] += 1
            counter, amount = count(args, kwargs, result)
            counts[counter] = counts.get(counter, 0) + amount
            return result

        if span is None:
            self.patch(module, attr, counted)
            return
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            calls[key] += 1
            if count is not None:
                counter, amount = count(args, kwargs, result)
                counts[counter] = counts.get(counter, 0) + amount
            return result

        self.patch(module, attr, traced)

    def patch(self, module, attr: str, new) -> None:
        """Set ``module.attr`` to ``new`` until ``unwrap``."""
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Seconds of self time per span name, over spans first..last-1."""
        last = len(self.start) if last is None else last
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(first, last):
            name = self.names[self.name[i]]
            own = self.end[i] - self.start[i] - child[i - first]
            out[name] = out.get(name, 0.0) + own
        return out

    def uncalled(self) -> list[str]:
        return sorted(key for key, n in self.calls.items() if n == 0)

    def write(self, path) -> None:
        """Write every span as gzipped JSON columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": self.counts,
            "calls": self.calls,
        }
        with gzip.open(path, "wt") as f:
            json.dump(doc, f)
