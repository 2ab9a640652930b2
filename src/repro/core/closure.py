"""Distributed concise transitive closure — the paper's ETC baseline (§VI-a).

The extended transitive closure records, for every reachable pair ``(u, v)``,
the *concise set* ``S^k(u, v)`` of minimum repeats (Definition 2). Our
distributed formulation uses the §IV reduction: ``u ~L+~> v`` iff ``(u, v)``
is in the transitive closure of the *hop relation* ``R_L = {(a, b) : some
path a→b has label sequence exactly L}``, for ``L`` a primitive sequence of
length ≤ k (any path whose sequence is ``L^m`` decomposes at repeat
boundaries into ``R_L`` hops, and ``MR(L^m) = L`` by Fine–Wilf).

So: (1) enumerate the hop table, every distinct ``(mr, src, dst)`` with a
primitive exact path sequence ``mr`` of length ≤ k, on the driver with the
RLC builder's :func:`repro.core.sequential.hop_table` over the collected
edge table (:func:`mr_hops`; ``mr`` is the label array itself), so ETC and
the builder share one hop-table definition; (2) run a semi-naive transitive
closure with ``mr`` in the join key — all labels' closures advance in the
same iteration, which is the "edge tables partitioned by label" dataflow
mapping.

Each iteration of (2) is one Spark job with one hash shuffle: the new rows
join a broadcast of the hop table, and a single group-by on
``(mr, src, dst)`` over the closure and the extension both deduplicates and
marks which rows are new (:func:`merge_fresh`). The job's ``Observation``
counts them, so no iteration pays for a separate ``count()``. The loop,
:func:`fixpoint`, also runs Sys1's batch BFS (``baselines.online``).

ETC blows up exactly as the paper reports (Table IV: buildable only for the
smallest graph in 24h); :class:`Budget` lets callers cap wall-clock time or
materialized pairs and report "-" instead of hanging.
"""
from __future__ import annotations

import logging
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, Observation, functions as F

from repro.core import labels as lab
from repro.core.graph import LabeledGraph
from repro.core.sequential import hop_table

logger = logging.getLogger(__name__)

#: The closure's key: one row per minimum repeat and vertex pair.
KEYS = ["mr", "src", "dst"]


class BudgetExceeded(RuntimeError):
    """Raised when an offline computation exceeds its time/size budget —
    the reproduction's analogue of the paper's 24-hour timeout ("-")."""


@dataclass
class Budget:
    max_seconds: float | None = None
    max_rows: int | None = None
    max_iterations: int = 1000

    def start(self) -> "Budget":
        self._t0 = time.monotonic()
        return self

    def check_rows(self, rows: int, what: str) -> None:
        """Raise BudgetExceeded once the time is up or ``rows`` is too many."""
        if self.max_seconds is not None and time.monotonic() - self._t0 > self.max_seconds:
            raise BudgetExceeded(f"{what}: exceeded {self.max_seconds}s")
        if self.max_rows is not None and rows > self.max_rows:
            raise BudgetExceeded(f"{what}: exceeded {self.max_rows} rows ({rows})")

    def check(self, rows: int, iteration: int, what: str) -> None:
        self.check_rows(rows, what)
        if iteration > self.max_iterations:
            raise BudgetExceeded(f"{what}: exceeded {self.max_iterations} iterations")

    @contextmanager
    def enforce(self, spark, what: str):
        """Hard wall-clock enforcement: a watchdog thread cancels this
        thread's Spark job group when the deadline passes, so a *single*
        long-running join cannot outlive the budget (the per-iteration
        :meth:`check` only fires between jobs). Raises BudgetExceeded when
        the watchdog cancelled the work."""
        if self.max_seconds is None:
            yield
            return
        sc = spark.sparkContext
        group = f"budget-{what}-{id(self)}"
        fired = threading.Event()
        done = threading.Event()

        def watchdog():
            remaining = self.max_seconds - (time.monotonic() - self._t0)
            if not done.wait(max(0.0, remaining)):
                fired.set()
                sc.cancelJobGroup(group)

        sc.setJobGroup(group, what, interruptOnCancel=True)
        w = threading.Thread(target=watchdog, daemon=True)
        w.start()
        try:
            yield
        except Exception as e:  # cancelled jobs surface as Py4J errors
            if fired.is_set():
                raise BudgetExceeded(f"{what}: exceeded {self.max_seconds}s (cancelled)") from e
            raise
        finally:
            done.set()
            sc.setLocalProperty("spark.jobGroup.id", None)


#: The hop table's Spark schema: ``mr`` is the label sequence itself.
HOP_SCHEMA = "mr array<string>, src long, dst long"


def hop_rows(graph: LabeledGraph, k: int) -> pa.Table:
    """The union of hop relations on the driver: ``(mr, src, dst)`` for every
    primitive exact sequence of length ≤ k, deduplicated, from one pass of
    :func:`repro.core.sequential.hop_table` over the collected edge table.
    ``mr`` is the label list, so labels containing the MR separator keep
    their sequences apart. An Arrow table, which ``createDataFrame`` ships
    in column batches whether or not the session enables Arrow for pandas."""
    e = graph.edges.toPandas()
    vx, verts = pd.factorize(np.concatenate([e["src"], e["dst"]]))
    label_ix, labels = pd.factorize(e["label"])
    hops = hop_table(vx[: len(e)], label_ix, vx[len(e) :], len(verts), list(labels), k)
    sids = np.array(sorted(hops.seqs), np.int64)
    mrs = pa.array([list(hops.seqs[s]) for s in sids.tolist()], pa.list_(pa.string()))
    mr = mrs.take(pa.array(np.searchsorted(sids, hops.sid)))
    return pa.table({"mr": mr, "src": verts[hops.x], "dst": verts[hops.y]})


def mr_hops(graph: LabeledGraph, k: int) -> DataFrame:
    """:func:`hop_rows` as a Spark DataFrame (:data:`HOP_SCHEMA`)."""
    return graph.edges.sparkSession.createDataFrame(hop_rows(graph, k), HOP_SCHEMA)


def merge_fresh(known: DataFrame, found: DataFrame, keys: list[str]) -> DataFrame:
    """``known ∪ found`` deduplicated on ``keys`` by one hash aggregation,
    with a boolean ``fresh`` that is true exactly for the rows of ``found``
    that are not in ``known``. One shuffle does the work of ``distinct``,
    ``left_anti`` and the union of a semi-naive fixpoint step."""
    return (
        known.select(*keys, F.lit(False).alias("fresh"))
        .unionByName(found.select(*keys, F.lit(True).alias("fresh")))
        .groupBy(*keys)
        .agg(F.min("fresh").alias("fresh"))
    )


def closure_step(state: DataFrame, hops: DataFrame) -> DataFrame:
    """One semi-naive ETC iteration: extend the ``fresh`` rows of ``state``
    ``(mr, src, dst, fresh)`` by one hop of the same ``mr`` in ``hops`` and
    merge them into it. The hop table is broadcast (it is bounded by the
    graph's exact paths); the closure never is, so the step has one hash
    shuffle."""
    delta = state.where("fresh")
    r = F.broadcast(
        hops.select(F.col("mr").alias("_m"), F.col("src").alias("_s"), F.col("dst").alias("_d"))
    )
    extended = delta.join(r, (delta["mr"] == F.col("_m")) & (delta["dst"] == F.col("_s"))).select(
        delta["mr"], delta["src"], F.col("_d").alias("dst")
    )
    return merge_fresh(state, extended, KEYS)


def fixpoint(
    seed: DataFrame, step: Callable[[DataFrame, DataFrame], DataFrame], budget: Budget, what: str
) -> DataFrame:
    """The semi-naive Spark loop of ETC and Sys1's batch BFS. Local-checkpoints
    the lazy ``seed`` state (a boolean ``fresh`` column marks new rows), then
    ``state = step(state, seed)`` with one local checkpoint per iteration,
    until no row is fresh; the checkpoint's ``Observation`` counts the fresh
    rows and the total. ``budget`` must be started: its clock also covers
    what the caller did to build the seed. Runs under ``budget.enforce``,
    calls ``budget.check`` after every non-empty iteration, and logs
    ``(what, iteration, delta_rows, total_rows, seconds)`` at INFO for every
    iteration, the empty last one included. Returns the last state.
    """
    with budget.enforce(seed.sparkSession, what):
        state = seed = seed.localCheckpoint()
        it = 0
        while True:
            it += 1
            t0 = time.perf_counter()
            obs = Observation()
            state = step(state, seed).observe(
                obs, F.count_if("fresh").alias("fresh"), F.count(F.lit(1)).alias("rows")
            ).localCheckpoint()
            n, total = obs.get["fresh"], obs.get["rows"]
            logger.info(
                "%s iteration %d: %d delta rows, %d total rows, %.3f s",
                what, it, n, total, time.perf_counter() - t0,
            )
            if n == 0:
                return state
            budget.check(total, it, what)


def concise_closure(graph: LabeledGraph, k: int, budget: Budget | None = None) -> DataFrame:
    """The concise transitive closure ``{(mr, src, dst)}`` = ETC contents:
    the :func:`fixpoint` of :func:`closure_step` from the hop table, all
    fresh, whose checkpoint is also the table each step extends by. The
    budget starts before the hop table is built, and its row cap is checked
    against the hop rows before they are shipped to Spark."""
    what = "concise_closure(ETC)"
    budget = (budget or Budget()).start()
    spark = graph.edges.sparkSession
    with budget.enforce(spark, what):
        hops = hop_rows(graph, k)
    budget.check_rows(hops.num_rows, what)
    seed = spark.createDataFrame(hops, HOP_SCHEMA).withColumn("fresh", F.lit(True))
    return fixpoint(seed, closure_step, budget, what).select(*KEYS)


class EtcIndex:
    """ETC wrapped with the same interfaces as the RLC index (Table IV/V)."""

    def __init__(self, closure: DataFrame, k: int):
        self.df = closure
        self.k = k

    def entry_count(self) -> int:
        return self.df.count()

    def size_bytes(self) -> int:
        """16 bytes for the vertex pair + the bytes of the ``SEP``-joined mr
        per closure entry."""
        mr_len = F.length(F.array_join("mr", lab.SEP))
        row = self.df.agg(F.sum(F.lit(16) + mr_len).alias("b")).collect()[0][0]
        return int(row or 0)

    def query_batch(self, queries: DataFrame) -> DataFrame:
        """Answers for ``(qid, src, dst, mr)`` queries with ``mr`` encoded by
        :func:`repro.core.labels.encode`. Splitting it on ``SEP`` restores
        the label array exactly, because ``encode`` refuses labels that
        contain ``SEP``."""
        keyed = queries.select("qid", "src", "dst", F.split("mr", re.escape(lab.SEP), -1).alias("mr"))
        hit = (
            keyed.join(self.df, ["src", "dst", "mr"], "leftsemi")
            .select("qid")
            .distinct()
            .withColumn("answer", F.lit(True))
        )
        return queries.select("qid").join(hit, "qid", "left").fillna(False, subset=["answer"])

    def to_driver(self) -> dict[tuple[int, int], set[lab.Seq]]:
        """Driver hashmap ``(src, dst) -> {mr}`` with MR tuples — the
        paper's ETC stores reachable pairs with their k-MR sets in a hashmap
        (§VI-a)."""
        out: dict[tuple[int, int], set[lab.Seq]] = {}
        for r in self.df.collect():
            out.setdefault((r.src, r.dst), set()).add(tuple(r.mr))
        return out
