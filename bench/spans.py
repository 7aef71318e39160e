"""In-memory spans and counters recorded around calls into each layer.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (``-1`` at top level) and ``op`` the id of the operation that
caused it.  Spans are kept in memory and written out once, when the run
ends.  A span's self time is its duration minus the union of the intervals
its children cover, so children running on two threads are not counted
twice.

The disabled tracer calls straight through, so untraced runs pay one extra
function call per traced boundary and nothing else.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one span; ``parent`` overrides the enclosing span of this
        thread, for work a library hands to its own worker threads."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        index = len(self.spans) - 1
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: float) -> None:
        if self.enabled:
            self.counts[name] += amount

    def self_times_ms(self) -> dict[str, list[float]]:
        """Self time of every finished span, in ms, grouped by span name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, list[float]] = defaultdict(list)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, reach)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            out[name].append((end - start - covered) * 1000)
        return out

    def median_ms(self) -> dict[str, dict[str, float]]:
        """Median self and inclusive time per span name, in ms."""
        inclusive: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            inclusive[name].append((end - start) * 1000)
        return {
            name: {"self": statistics.median(values), "total": statistics.median(inclusive[name])}
            for name, values in self.self_times_ms().items()
        }

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
