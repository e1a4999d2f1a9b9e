"""In-memory spans and counters for the traced benchmark run.

Spans are recorded around the benchmark's own calls into the library, never
inside it.  Everything stays in memory until :meth:`Tracer.write` runs at the
end, so file output does not disturb the measurement.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans as (id, parent, name, start_ns, end_ns, calls) plus named counters.

    ``calls`` is the number of library calls the span covers, so a batch span
    gives a per-call time without a span per call.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = [0]
        self._next_id = 1

    @contextmanager
    def span(self, name: str, calls: int = 1):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end, calls))

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def durations(self, name: str):
        """Per-call seconds of every span with this name, in recording order."""
        return [(end - start) / 1e9 / calls
                for _, _, span_name, start, end, calls in self.spans if span_name == name]

    def self_times(self) -> dict:
        """Total self time in seconds per span name: duration minus children."""
        child_ns = Counter()
        for _, parent, _, start, end, _ in self.spans:
            child_ns[parent] += end - start
        totals = Counter()
        for span_id, _, name, start, end, _ in self.spans:
            totals[name] += (end - start - child_ns[span_id]) / 1e9
        return dict(totals)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "calls"],
            "spans": self.spans,
            "counters": dict(sorted(self.counters.items())),
            "self_time_s": dict(sorted(self.self_times().items())),
        }
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")


class NullTracer:
    """Stand-in for the untraced run: records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, calls: int = 1):
        yield

    def count(self, name: str, n: int = 1) -> None:
        pass
