"""In-memory spans recorded from outside the program.

A span is (name, start ns, end ns, parent index). Each pass and each
set-up construction is one root span; the spans under it share its index
as their trace id. Spans are only kept in memory while the benchmark runs
and are written out when it ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, self._open[-1] if self._open else None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn):
        """``fn`` with one span around every call."""

        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return call

    def root(self, index: int) -> int:
        while self.spans[index][3] is not None:
            index = self.spans[index][3]
        return index

    def totals_by_trace(self) -> dict[int, dict[str, float]]:
        """Seconds per span name, summed within each root span's trace."""
        out: dict[int, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            per = out.setdefault(self.root(i), {})
            per[name] = per.get(name, 0.0) + (end - start) / 1e9
        return out

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (total minus children)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
        return out

    def as_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p, "trace": self.root(i)}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]


class NullTracer:
    """Records nothing; untraced passes call the program's functions directly."""

    def span(self, name: str):
        return nullcontext()

    def wrap(self, name: str, fn):
        return fn
