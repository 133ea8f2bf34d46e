"""In-memory span recorder for the traced run.

A span is (id, name, start, end, parent); all spans of one traced chain
share ``trace_id``.  Spans are recorded only around the benchmark's own
calls into the program's layers, so a span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = {
            "trace_id": self.trace_id,
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield
        finally:
            self._open.pop()
            span["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover."""
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
        for s in self.spans:
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"]
                totals[parent] -= s["end"] - s["start"]
        return totals
