"""In-memory spans for the benchmark's traced run.

A span is ``(name, start_ns, end_ns, parent, run_id)``; ``parent`` is the
index of the enclosing span or ``None``. Spans are opened only by the
benchmark's own code, around calls into the system's public functions. Work
too fine-grained for one span per call (the millions of PR1 probes of one
build) is recorded as an *aggregate*: ``(name, parent, total_ns, count)``
under the span that contains it.

A span's self time is its duration minus the part of it covered by its
child spans and aggregates. Every span is always timed, because the
end-to-end metrics are read from the same timers; spans are kept only when
tracing is on, and written out once, when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    """Handle yielded by :meth:`Tracer.span`: its index and, once closed,
    its duration in seconds."""

    __slots__ = ("index", "seconds")

    def __init__(self, index: int | None):
        self.index = index
        self.seconds = 0.0


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[tuple[str, int, int, int | None, str]] = []
        self.aggregates: list[tuple[str, int | None, int, int]] = []
        self._stack: list[int] = []

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str):
        index = None
        if self.enabled:
            index = len(self.spans)
            self.spans.append((name, 0, 0, self.current, self.run_id))
            self._stack.append(index)
        handle = Span(index)
        start = time.perf_counter_ns()
        try:
            yield handle
        finally:
            end = time.perf_counter_ns()
            handle.seconds = (end - start) / 1e9
            if self.enabled:
                self._stack.pop()
                self.spans[index] = (name, start, end, self.spans[index][3], self.run_id)

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record an interval measured elsewhere (e.g. one ETC iteration,
        delimited by two budget checks) as a child of the current span."""
        if self.enabled:
            self.spans.append((name, start_ns, end_ns, self.current, self.run_id))

    def add_aggregate(self, name: str, total_ns: int, count: int, parent: int | None) -> None:
        """Record ``count`` calls totalling ``total_ns`` inside span ``parent``."""
        if self.enabled:
            self.aggregates.append((name, parent, total_ns, count))

    def self_seconds(self, index: int) -> float:
        """Duration of span ``index`` minus what its children cover."""
        _, start, end, _, _ = self.spans[index]
        children = sorted(
            (s, e) for _, s, e, parent, _ in self.spans if parent == index
        )
        covered = 0
        cursor = start
        for s, e in children:
            s = max(s, cursor)
            if e > s:
                covered += e - s
                cursor = e
        covered += sum(t for _, parent, t, _ in self.aggregates if parent == index)
        return (end - start - covered) / 1e9

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "run_id": self.run_id,
            "spans": [
                {
                    "name": name,
                    "start_ns": s,
                    "end_ns": e,
                    "parent": parent,
                    "run_id": rid,
                    "self_s": self.self_seconds(i),
                }
                for i, (name, s, e, parent, rid) in enumerate(self.spans)
            ],
            "aggregates": [
                {"name": name, "parent": parent, "total_ns": t, "count": c}
                for name, parent, t, c in self.aggregates
            ],
        }
        path.write_text(json.dumps(doc, indent=1))
