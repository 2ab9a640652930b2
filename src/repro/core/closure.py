"""Distributed concise transitive closure — the paper's ETC baseline (§VI-a).

The extended transitive closure records, for every reachable pair ``(u, v)``,
the *concise set* ``S^k(u, v)`` of minimum repeats (Definition 2). Our
distributed formulation uses the §IV reduction: ``u ~L+~> v`` iff ``(u, v)``
is in the transitive closure of the *hop relation* ``R_L = {(a, b) : some
path a→b has label sequence exactly L}``, for ``L`` a primitive sequence of
length ≤ k (any path whose sequence is ``L^m`` decomposes at repeat
boundaries into ``R_L`` hops, and ``MR(L^m) = L`` by Fine–Wilf).

So: (1) enumerate all distinct ``(src, dst, seq)`` exact paths of length ≤ k
with level-wise joins over the label-partitioned edge table; (2) keep the
primitive sequences as one big hop table keyed by ``mr``; (3) run a
semi-naive transitive closure with ``mr`` in the join key — all labels'
closures advance in the same iteration, which is the "edge tables
partitioned by label" dataflow mapping.

ETC blows up exactly as the paper reports (Table IV: buildable only for the
smallest graph in 24h); :class:`Budget` lets callers cap wall-clock time or
materialized pairs and report "-" instead of hanging.
"""
from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import BooleanType

from repro.core import labels as lab
from repro.core.graph import LabeledGraph

udf_is_primitive = F.udf(lambda seq: lab.is_primitive(tuple(seq)), BooleanType())


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

    def check(self, rows: int, iteration: int, what: str) -> None:
        if self.max_seconds is not None and time.monotonic() - self._t0 > self.max_seconds:
            raise BudgetExceeded(f"{what}: exceeded {self.max_seconds}s")
        if self.max_rows is not None and rows > self.max_rows:
            raise BudgetExceeded(f"{what}: exceeded {self.max_rows} rows ({rows})")
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


def exact_paths(graph: LabeledGraph, k: int) -> DataFrame:
    """All distinct ``(src, dst, seq)`` with ``seq`` the exact label sequence
    of some path of length 1..k (``seq``: array<string>)."""
    e = graph.edges
    level = e.select("src", "dst", F.array("label").alias("seq"))
    out = level
    for _ in range(1, k):
        nxt = e.select(F.col("src").alias("_s"), "label", F.col("dst").alias("_d"))
        level = (
            level.join(nxt, level["dst"] == F.col("_s"))
            .select(
                level["src"],
                F.col("_d").alias("dst"),
                F.concat("seq", F.array("label")).alias("seq"),
            )
            .distinct()
        )
        out = out.unionByName(level)
    return out


def mr_hops(graph: LabeledGraph, k: int) -> DataFrame:
    """The union of hop relations: ``(mr, src, dst)`` for every primitive
    exact sequence of length ≤ k (deduplicated)."""
    paths = exact_paths(graph, k)
    return (
        paths.where(udf_is_primitive("seq"))
        .select(F.array_join("seq", lab.SEP).alias("mr"), "src", "dst")
        .distinct()
    )


def concise_closure(
    graph: LabeledGraph, k: int, budget: Budget | None = None
) -> DataFrame:
    """The concise transitive closure ``{(src, dst, mr)}`` = ETC contents.

    Semi-naive iteration: ``delta' = delta ⋈ R`` (extend by one primitive
    hop) minus known, until empty. Returns a localCheckpoint'ed DataFrame.
    """
    budget = (budget or Budget()).start()
    spark = graph.edges.sparkSession
    with budget.enforce(spark, "concise_closure(ETC)"):
        hops = mr_hops(graph, k).localCheckpoint()
        r = hops.select(
            F.col("mr").alias("_m"), F.col("src").alias("_s"), F.col("dst").alias("_d")
        )
        closure = hops
        delta = hops
        total = closure.count()
        it = 0
        while True:
            it += 1
            new = (
                delta.join(r, (delta["mr"] == F.col("_m")) & (delta["dst"] == F.col("_s")))
                .select(delta["mr"], delta["src"], F.col("_d").alias("dst"))
                .distinct()
            )
            delta = new.join(closure, ["mr", "src", "dst"], "left_anti").localCheckpoint()
            n = delta.count()
            if n == 0:
                break
            old = closure
            closure = closure.unionByName(delta).localCheckpoint()
            old.unpersist()
            total += n
            budget.check(total, it, "concise_closure(ETC)")
    return closure


class EtcIndex:
    """ETC wrapped with the same interfaces as the RLC index (Table IV/V)."""

    def __init__(self, closure: DataFrame, k: int):
        self.df = closure
        self.k = k

    def entry_count(self) -> int:
        return self.df.count()

    def size_bytes(self) -> int:
        """16 bytes for the vertex pair + mr bytes per closure entry."""
        row = self.df.agg(F.sum(F.lit(16) + F.length("mr")).alias("b")).collect()[0][0]
        return int(row or 0)

    def query_batch(self, queries: DataFrame) -> DataFrame:
        hit = (
            queries.join(self.df, ["src", "dst", "mr"], "leftsemi")
            .select("qid")
            .distinct()
            .withColumn("answer", F.lit(True))
        )
        return queries.select("qid").join(hit, "qid", "left").fillna(False, subset=["answer"])

    def to_driver(self) -> dict[tuple[int, int], set[str]]:
        """Driver hashmap ``(src, dst) -> {mr}`` — the paper's ETC stores
        reachable pairs with their k-MR sets in a hashmap (§VI-a)."""
        out: dict[tuple[int, int], set[str]] = {}
        for r in self.df.collect():
            out.setdefault((r.src, r.dst), set()).add(r.mr)
        return out
