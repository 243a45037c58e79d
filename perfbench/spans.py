"""In-memory span recorder for the traced benchmark run.

The recorder wraps, from outside the library, the names one wilfgraph module
calls in another (for example ``enumeration._canonical_key``, which the
census calls into ``loopy``). No file of the library changes. Each call made
while recording is one span: id, name, start, end and parent id; the run id
is attached when the spans are written out at the end of the sample.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# (module of wilfgraph, attribute looked up at call time, span name)
TARGETS = (
    ("enumeration", "_canonical_key", "loopy.canonical"),
    ("loopy", "_canonical_key", "loopy.canonical"),
    ("matching", "all_loopy_graphs", "loopy.catalog"),
    ("semigraph", "apery_analyze", "apery.analyze"),
    ("semigraph", "build_graph", "semigraph.build_graph"),
    ("realize", "build_graph", "semigraph.build_graph"),
    ("semigraph", "weight_analysis", "semigraph.weight_analysis"),
    ("semigraph", "structural_lemma_suite", "semigraph.lemma_suite"),
    ("semigraph", "invariant_report", "semigraph.invariant_report"),
    ("matching", "analyze", "matching.analyze"),
    ("matching", "vm", "matching.vm"),
    ("matching", "_solve", "matching.solve"),
    ("matching", "_solve_bb", "matching.bb"),
    ("matching", "_solve_blossom", "matching.blossom"),
    ("realize", "realize", "realize.realize"),
    ("realize", "verify_realization", "realize.verify"),
    ("realize", "from_generators_truncated", "semigroup.sieve"),
)


class NullTracer:
    """Stands in for the recorder in untraced samples; wraps nothing."""

    def install(self, lib):
        pass

    def uninstall(self):
        pass

    def span(self, name):
        return nullcontext()

    def iterate(self, name, iterator):
        return iterator


class Tracer:
    """Records spans at the wrapped call sites while a span is open."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (id, name, start, end, parent id); ids count span starts, and a
        # span is stored when it ends
        self.spans: list[tuple] = []
        self.missing: list[str] = []    # wrapped names absent from the library
        self.missing_spans: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0
        self._installed: list[tuple] = []

    def install(self, lib):
        for module_name, attr, name in TARGETS:
            owner = getattr(lib, module_name)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                self.missing_spans.add(name)
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self._stack:     # only calls inside an open span count
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        span_id, parent = self._next_id, self._stack[-1] if self._stack else -1
        self._next_id += 1
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def iterate(self, name, iterator):
        """Yield from ``iterator``, one span per ``next`` call."""
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(json.dumps({"run_id": self.run_id, "id": span_id,
                                      "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")


class SpanStats:
    """Per-name totals, self times and parent-child call counts.

    Every duration is multiplied by ``scale``, the sample's factor to the
    reference host speed (perfbench/speed.py).
    """

    def __init__(self, spans, scale=1.0):
        name_of = [""] * len(spans)
        child_time = [0.0] * len(spans)
        for span_id, name, start, end, parent in spans:
            name_of[span_id] = name
            if parent >= 0:
                child_time[parent] += (end - start) * scale
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_times: dict[str, list[float]] = defaultdict(list)
        self.child_calls: Counter = Counter()
        for span_id, name, start, end, parent in spans:
            self.durations[name].append((end - start) * scale)
            self.self_times[name].append((end - start) * scale
                                         - child_time[span_id])
            if parent >= 0:
                self.child_calls[name_of[parent], name] += 1

    def calls(self, name) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name) -> float:
        return sum(self.durations.get(name, ()))

    def quantile_us(self, name, q, self_time=False) -> float:
        values = sorted((self.self_times if self_time
                         else self.durations).get(name, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))] * 1e6
