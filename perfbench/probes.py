"""Benchmark-side subclasses that count and time calls into public APIs.

Neither subclass changes what the system computes: each calls the parent
method and only records when it was called, how long it took and what it
returned. They are used in the traced run only; the untraced run measures
the unmodified classes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.closure import Budget
from repro.core.sequential import SequentialRlcIndex


class ProbeCountingIndex(SequentialRlcIndex):
    """:class:`SequentialRlcIndex` with its public ``query`` timed.

    Algorithm 2's PR1 probe is a call to ``self.query`` from ``_insert``, so
    during the build these counters are the PR1 probes; after
    :meth:`reset_counters` they count the lookups the caller makes (e.g. the
    hybrid Q4 strategy's index probes).
    """

    def __init__(self, out_adj, in_adj, k: int):
        self.reset_counters()
        super().__init__(out_adj, in_adj, k)

    def reset_counters(self) -> None:
        self.probes = 0
        self.hits = 0
        self.probe_ns = 0

    def query(self, s, t, constraint) -> bool:
        start = time.perf_counter_ns()
        hit = super().query(s, t, constraint)
        self.probe_ns += time.perf_counter_ns() - start
        self.probes += 1
        self.hits += hit
        return hit


@dataclass
class IterationBudget(Budget):
    """:class:`Budget` whose public ``check`` (called by ``concise_closure``
    once after every non-empty fixpoint iteration) timestamps the iteration
    and the cumulative closure rows."""

    checks: list[tuple[int, int]] = field(default_factory=list)  # (ns, rows)
    started_ns: int = 0

    def start(self) -> "IterationBudget":
        self.checks = []
        self.started_ns = time.perf_counter_ns()
        return super().start()

    def check(self, rows: int, iteration: int, what: str) -> None:
        self.checks.append((time.perf_counter_ns(), rows))
        super().check(rows, iteration, what)
