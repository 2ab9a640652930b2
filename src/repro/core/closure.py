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
edge table (``mr`` is the label array itself), so ETC and the builder share
one hop-table definition; (2) close it in one Spark job with no shuffle
(:func:`concise_closure`). A closure row ``(mr, src, dst)`` is only ever
extended at ``dst``, by a hop of the same ``mr``, so ``(src, mr)`` never
changes during the recursion: the program is decomposable in the sense of
BigDatalog (Shkapsky et al., SIGMOD 2016). The hop table is broadcast once
as CSR grouped by ``(src, mr)``; the groups are dealt round-robin over
``defaultParallelism`` slices, and each ``mapInArrow`` task runs the
semi-naive loop of its own groups level by level in numpy, over sorted
packed keys, expanding each level in bounded chunks. Each task checks the
:class:`Budget` after every chunk and every level, and an accumulator
brings each level's delta rows back to the driver, which logs and
budget-checks the levels once the job ends.

:func:`fixpoint` is the semi-naive loop of Spark jobs that Sys1's batch BFS
(``baselines.online``) runs on; each iteration is one job whose single hash
shuffle both deduplicates and marks the new rows (:func:`merge_fresh`).

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
from functools import partial
from itertools import count, pairwise, zip_longest
from typing import Callable, Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark import Accumulator, AccumulatorParam, Broadcast
from pyspark.errors import PythonException
from pyspark.sql import DataFrame, Observation, functions as F

from repro.core import labels as lab
from repro.core.graph import LabeledGraph
from repro.core.sequential import csr, csr_expand, hop_table

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

#: Rows a closure task expands at once before deduplicating them. A level
#: can fan out far past the row cap (SO ×1 at k=2 crashed its Python workers
#: expanding whole levels), so a task expands each level in chunks and
#: checks the budget after each: its memory follows its rows, not the
#: level's fan-out.
_CHUNK = 1 << 22


@dataclass(frozen=True)
class _Hops:
    """A graph's hop table as CSR grouped by ``(x, L)`` and keyed ``x *
    width + sid``, as in :meth:`repro.core.sequential.HopTable.groups`:
    group ``i`` is ``group[i]`` and its heads are ``ys[start[i]:start[i +
    1]]``. Rows are packed as in :class:`~repro.core.sequential.HopTable`,
    ``(x * width + sid) * n + y`` over interned vertices; ``verts`` and
    ``mrs`` (the label list of each of ``sids``) turn them back into
    ``(mr, src, dst)``."""

    group: np.ndarray
    start: np.ndarray
    ys: np.ndarray
    width: int
    n: int
    verts: np.ndarray
    sids: np.ndarray
    mrs: pa.Array

    def rows(self, key: np.ndarray) -> pa.RecordBatch:
        """The packed rows ``key`` as an Arrow batch of :data:`HOP_SCHEMA`."""
        x, y = np.divmod(key, self.n)
        mr = self.mrs.take(np.searchsorted(self.sids, x % self.width))
        return pa.RecordBatch.from_arrays(
            [mr, pa.array(self.verts[x // self.width]), pa.array(self.verts[y])], names=KEYS
        )

    def seeds(self, groups: np.ndarray) -> np.ndarray:
        """The packed hop rows of the groups numbered ``groups``."""
        lo = self.start[groups]
        return csr_expand(self.group[groups] * self.n, lo, self.start[groups + 1] - lo, self.ys)

    def extend(self, key: np.ndarray) -> Iterator[np.ndarray]:
        """Every packed row ``(x, L, y)`` of ``key`` extended by each hop
        ``(y, L, z)`` to ``(x, L, z)``, unsorted and with duplicates, in
        chunks of about :data:`_CHUNK` rows (one row of ``key`` with more
        hops than that is a chunk of its own)."""
        prefix, y = np.divmod(key, self.n)
        want = y * self.width + prefix % self.width
        g = np.minimum(np.searchsorted(self.group, want), len(self.group) - 1)
        lo = self.start[g]
        deg = np.where(self.group[g] == want, self.start[g + 1] - lo, 0)
        ends = np.cumsum(deg)
        cuts = np.unique(np.searchsorted(ends, np.arange(_CHUNK, ends[-1:].sum(), _CHUNK), "right"))
        for a, b in pairwise([0, *cuts.tolist(), len(key)]):
            yield csr_expand(prefix[a:b] * self.n, lo[a:b], deg[a:b], self.ys)


def _hops(graph: LabeledGraph, k: int) -> _Hops:
    """:func:`repro.core.sequential.hop_table` of the collected edge table,
    vertices interned in order of appearance and labels likewise."""
    e = graph.edges.toPandas()
    vx, verts = pd.factorize(np.concatenate([e["src"], e["dst"]]))
    label_ix, labels = pd.factorize(e["label"])
    hops = hop_table(vx[: len(e)], label_ix, vx[len(e) :], len(verts), list(labels), k)
    group, start, ys = csr(hops.key // hops.n, hops.y)
    sids = np.array(sorted(hops.seqs), np.int64)
    mrs = pa.array([list(hops.seqs[s]) for s in sids.tolist()], pa.list_(pa.string()))
    return _Hops(group, start, ys, hops.width, hops.n, np.asarray(verts, np.int64), sids, mrs)


def hop_rows(graph: LabeledGraph, k: int) -> pa.Table:
    """The union of hop relations on the driver: ``(mr, src, dst)`` for every
    primitive exact sequence of length ≤ k, deduplicated, from one pass of
    :func:`repro.core.sequential.hop_table` over the collected edge table.
    ``mr`` is the label list, so labels containing the MR separator keep
    their sequences apart. An Arrow table, which ``createDataFrame`` ships
    in column batches whether or not the session enables Arrow for pandas."""
    hops = _hops(graph, k)
    return pa.Table.from_batches([hops.rows(hops.seeds(np.arange(len(hops.group))))])


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


def fixpoint(
    seed: DataFrame, step: Callable[[DataFrame, DataFrame], DataFrame], budget: Budget, what: str
) -> DataFrame:
    """The semi-naive Spark loop of Sys1's batch BFS. Local-checkpoints
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
            _log_iteration(what, it, n, total, time.perf_counter() - t0)
            if n == 0:
                return state
            budget.check(total, it, what)


def _log_iteration(what: str, iteration: int, delta: int, total: int, seconds: float) -> None:
    logger.info(
        "%s iteration %d: %d delta rows, %d total rows, %.3f s", what, iteration, delta, total, seconds
    )


class _LevelSums(AccumulatorParam):
    """``[(delta rows, seconds), ...]`` per closure level, added level by
    level over the tasks."""

    def zero(self, value):
        return []

    def addInPlace(self, a, b):
        return [(r + s, t + u) for (r, t), (s, u) in zip_longest(a, b, fillvalue=(0, 0.0))]


def _close_slices(
    hops: Broadcast, levels: Accumulator, budget: Budget, started: float, slices: int, what: str, batches
):
    """The ``mapInArrow`` body of :func:`concise_closure`. For each slice
    number ``i`` in ``batches``: yields the hop rows of groups ``i, i +
    slices, ...``, then the closure's new rows level by level, semi-naive
    over sorted packed keys; calls ``budget.check_rows`` with the slice's
    rows after every chunk of a level's expansion and ``budget.check``
    after every non-empty level; and adds ``(delta rows, seconds)`` for
    each level, the empty last one included, to ``levels``. ``started`` is
    the budget's start in wall-clock time, because a task's process has its
    own monotonic clock."""
    h = hops.value
    budget._t0 = time.monotonic() - (time.time() - started)
    for batch in batches:
        for i in batch.column(0).to_pylist():
            known = delta = np.sort(h.seeds(np.arange(i, len(h.group), slices)))
            yield h.rows(delta)
            counts = []
            for level in count(1):
                t0 = time.perf_counter()
                fresh = []
                for found in h.extend(delta):
                    found = np.unique(found)
                    at = np.searchsorted(known, found)
                    new = at == len(known)
                    new[~new] = known[at[~new]] != found[~new]
                    known = np.insert(known, at[new], found[new])
                    fresh.append(found[new])
                    budget.check_rows(len(known), what)
                delta = np.concatenate(fresh)
                counts.append((len(delta), time.perf_counter() - t0))
                if not len(delta):
                    break
                budget.check(len(known), level, what)
                yield h.rows(delta)
            levels.add(counts)


def concise_closure(graph: LabeledGraph, k: int, budget: Budget | None = None) -> DataFrame:
    """The concise transitive closure ``{(mr, src, dst)}`` = ETC contents,
    local-checkpointed, from one Spark job with no shuffle (module
    docstring). The budget starts before the hop table is built, and its
    row cap is checked against the hop rows before they are shipped to
    Spark. Each task checks the budget after each chunk and each level of
    its own, and a task's breach is raised here as :class:`BudgetExceeded`. Once the job
    ends, every level is logged as ``(what, iteration, delta_rows,
    total_rows, seconds)`` at INFO, the empty last one included (seconds
    are task time summed over tasks), and ``budget.check`` runs after each
    non-empty level with the running total."""
    what = "concise_closure(ETC)"
    budget = (budget or Budget()).start()
    spark = graph.edges.sparkSession
    sc = spark.sparkContext
    with budget.enforce(spark, what):
        hops = _hops(graph, k)
        total = len(hops.ys)
        budget.check_rows(total, what)
        shipped = sc.broadcast(hops)
        levels = sc.accumulator([], _LevelSums())
        slices = sc.defaultParallelism
        # The tasks get the caps only: a caller's Budget subclass may record
        # its checks, and those are the driver's per-level checks below.
        caps = Budget(budget.max_seconds, budget.max_rows, budget.max_iterations)
        started = time.time() - (time.monotonic() - budget._t0)
        task = partial(_close_slices, shipped, levels, caps, started, slices, what)
        obs = Observation()
        try:
            closure = (
                spark.range(slices, numPartitions=slices)
                .mapInArrow(task, HOP_SCHEMA)
                .observe(obs, F.count(F.lit(1)).alias("rows"))
                .localCheckpoint()
            )
        except PythonException as e:
            breach = re.findall(r"BudgetExceeded: (.+)", str(e))
            if not breach:
                raise
            raise BudgetExceeded(breach[-1]) from e
        finally:
            shipped.destroy()
    for level, (delta, seconds) in enumerate(levels.value, 1):
        total += delta
        _log_iteration(what, level, delta, total, seconds)
        if delta:
            budget.check(total, level, what)
    if total != obs.get["rows"]:
        raise RuntimeError(f"{what}: the levels add up to {total} rows, the closure has {obs.get['rows']}")
    return closure


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
