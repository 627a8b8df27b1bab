"""In-memory spans around the benchmark's own calls into minimon's layers.

A span has a name, a start and an end (``perf_counter_ns``), the span that
caused it, and the id of its root span, which groups the spans of one round.
Spans stay in memory until :meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Tracer:
    """Records nested spans; ``enabled=False`` makes ``span`` a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        # One [id, parent, root, name, start_ns, end_ns] list per span.
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def _span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][0] if self._stack else span_id
        record = [span_id, parent, root, name, _clock(), 0]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record[5] = _clock()
            self._stack.pop()

    def span(self, name: str):
        return self._span(name) if self.enabled else contextlib.nullcontext()

    def durations_s(self, name: str) -> list[float]:
        return [(s[5] - s[4]) / 1e9 for s in self.spans if s[3] == name]

    def self_times_s(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's."""
        child_ns: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s[1] >= 0:
                child_ns[s[1]] += s[5] - s[4]
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s[3]] += (s[5] - s[4] - child_ns[s[0]]) / 1e9
        return dict(totals)

    def write(self, path) -> None:
        """Write one JSON object per span, then a per-name self-time summary."""
        with open(path, "w", encoding="utf-8") as f:
            for span_id, parent, root, name, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "root": root,
                                    "name": name, "start_ns": start, "end_ns": end}) + "\n")
            f.write(json.dumps({"self_time_s": self.self_times_s()}) + "\n")
