"""In-memory spans around the calls the benchmark makes into each module.

A span is ``(id, name, start_ns, end_ns, parent_id, trial)``.  Spans stay in
memory until the run ends and are then written out as JSON lines.  A span's
self time is its duration minus the durations of its children; children of
one span never overlap, since the traced run is single-threaded.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.trial: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.trial)

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def self_ns(self) -> list[int]:
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def self_ms_by_name(self) -> dict[str, float]:
        total: Counter = Counter()
        for span, own in zip(self.spans, self.self_ns()):
            total[span[1]] += own
        return {name: ns / 1e6 for name, ns in total.items()}

    def duration_ms(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _, _ in self.spans if n == name) / 1e6

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for (sid, name, start, end, parent, trial), own in zip(self.spans, self.self_ns()):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "trial": trial, "self_ns": own}) + "\n")
