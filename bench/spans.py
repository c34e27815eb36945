"""Spans around the benchmark's calls into symkit's layers.

A span is (name, start, end, parent, query id, n): ``n`` is how many library
calls a batch span covers, so per-call times can be read off it.  Layer spans
are children of their query's root span and never nest inside each other, so
a layer's busy time is the plain sum of its span durations.  Spans stay in
memory until the run ends.
"""
from __future__ import annotations

from collections import Counter
from time import perf_counter


class NullTracer:
    """Untraced runs: calls pass straight through."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def batch(self, name, n, fn, *args):
        return fn(*args)

    def count(self, name, k=1):
        pass

    def begin(self, qid, name):
        pass

    def end(self):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._root = None

    def batch(self, name, n, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, perf_counter(), self._root[0],
                               self._root[1], n))

    def call(self, name, fn, *args):
        return self.batch(name, 1, fn, *args)

    def count(self, name, k=1):
        self.counts[name] += k

    def begin(self, qid, name):
        self._root = (len(self.spans), qid, name, perf_counter())
        self.spans.append(None)  # filled in by end()

    def end(self):
        index, qid, name, start = self._root
        self.spans[index] = (name, start, perf_counter(), None, qid, 1)
        self._root = None

    def totals(self):
        """name -> [busy seconds, spans, calls] over the layer spans."""
        out = {}
        for name, start, end, parent, _, n in self.spans:
            if parent is None:
                continue
            t = out.setdefault(name, [0.0, 0, 0])
            t[0] += end - start
            t[1] += 1
            t[2] += n
        return out

    def query_seconds(self):
        return sum(end - start for _, start, end, parent, _, _ in self.spans
                   if parent is None)
