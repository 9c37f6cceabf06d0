"""Spans recorded around the benchmark's calls into evasionlab's layers.

A span is ``[name, start, end, parent, run]``: the layer call it wraps,
its perf_counter bounds, the index of the enclosing span (-1 at the top)
and the run id shared by every span of one round. Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Stand-in for untraced rounds: every span is a shared no-op."""

    def span(self, name: str):
        return _NULL_SPAN


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = "setup"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per run id, per span name: summed duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, run), covered in zip(self.spans, child):
            out[run][name] += end - start - covered
        return out

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
