"""Online-traversal baselines (paper §VI-a): NFA-guided BFS and BiBFS.

The paper's baselines evaluate an RLC query by traversing the graph guided
by the minimized NFA of the query's regular expression. For ``L+`` with
``|L| = m`` that NFA is a cycle of ``m`` states; the traversal explores the
product space ``(vertex, state)`` — at most ``|V| * m`` states, so it always
terminates even on cyclic graphs.

Three implementations:

- :func:`nfa_bfs` — driver-side product-state BFS for an arbitrary small NFA
  (used per-query, and as the Sys2 engine stand-in);
- :func:`bibfs` — bidirectional BFS specialized to ``L+`` (the paper's
  strongest online baseline); frontiers meet when forward progress ``i`` and
  backward progress ``j`` align (``(i + j) mod m == 0``) at the same vertex;
- :func:`batch_nfa_bfs` — the same product-state BFS as distributed
  dataflow: one transition table built from every query's NFA and one
  state DataFrame carrying every query in the workload at once, so ``L+``
  and ``a+ . b+`` share one Spark loop,
  :func:`repro.core.closure.fixpoint`.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.closure import Budget, fixpoint, merge_fresh
from repro.core.graph import LabeledGraph
from repro.core.sequential import Adjacency


@dataclass
class Nfa:
    """A small NFA over edge labels; states are ints, ``trans[(q, label)]``
    is the set of successor states."""

    start: int
    accept: frozenset[int]
    trans: dict[tuple[int, str], frozenset[int]] = field(default_factory=dict)

    @classmethod
    def kleene_plus(cls, L: Sequence[str]) -> "Nfa":
        """NFA for ``L+``: an m-cycle; state = labels consumed mod m.
        Accepting at state 0 *after at least one transition* (the search
        functions never test the start configuration for acceptance)."""
        m = len(L)
        trans = {(i, L[i]): frozenset({(i + 1) % m}) for i in range(m)}
        return cls(start=0, accept=frozenset({0}), trans=trans)

    @classmethod
    def concat_plus(cls, a: str, b: str) -> "Nfa":
        """NFA for the paper's extended query Q4: ``a+ . b+``."""
        trans = {
            (0, a): frozenset({1}),
            (1, a): frozenset({1}),
            (1, b): frozenset({2}),
            (2, b): frozenset({2}),
        }
        return cls(start=0, accept=frozenset({2}), trans=trans)

    def step(self, q: int, label: str) -> frozenset[int]:
        return self.trans.get((q, label), frozenset())


def nfa_bfs(out_adj: Adjacency, s: int, t: int, nfa: Nfa) -> bool:
    """Product-state BFS; true iff some path from ``s`` to ``t`` spells a
    word the NFA accepts (>= 1 edge)."""
    start = (s, nfa.start)
    visited = {start}
    queue = deque([start])
    while queue:
        v, q = queue.popleft()
        for lbl, w in out_adj.get(v, ()):
            for q2 in nfa.step(q, lbl):
                if w == t and q2 in nfa.accept:
                    return True
                if (w, q2) not in visited:
                    visited.add((w, q2))
                    queue.append((w, q2))
    return False


def bibfs(out_adj: Adjacency, in_adj: Adjacency, s: int, t: int, L: Sequence[str]) -> bool:
    """Bidirectional BFS for ``(s, t, L+)``. Forward states count labels
    consumed from the start mod m; backward states count labels consumed
    from the end mod m. A meet at vertex ``v`` with forward state ``i`` and
    backward state ``j`` is a witness iff ``(i + j) % m == 0`` and at least
    one side has moved (rules out the zero-length "path")."""
    m = len(L)
    # A landed-on configuration always counts as "moved"; the pre-seeded
    # start configurations (s, 0) / (t, 0) are only ever the *other* side of
    # a meet, which is valid because the landing side moved.
    fvis: set[tuple[int, int]] = {(s, 0)}
    bvis: set[tuple[int, int]] = {(t, 0)}
    fq: deque[tuple[int, int]] = deque([(s, 0)])
    bq: deque[tuple[int, int]] = deque([(t, 0)])
    while fq or bq:
        # expand the smaller live frontier (classic BiBFS balancing)
        if fq and (not bq or len(fq) <= len(bq)):
            for _ in range(len(fq)):
                v, i = fq.popleft()
                expect = L[i]
                for lbl, w in out_adj.get(v, ()):
                    if lbl != expect:
                        continue
                    i2 = (i + 1) % m
                    # meet check precedes the visited-skip: a revisit can
                    # still complete a meet (e.g. an L-labeled self loop).
                    if (w, (m - i2) % m) in bvis:
                        return True
                    if (w, i2) not in fvis:
                        fvis.add((w, i2))
                        fq.append((w, i2))
        else:
            for _ in range(len(bq)):
                v, j = bq.popleft()
                expect = L[m - 1 - (j % m)]
                for lbl, u in in_adj.get(v, ()):
                    if lbl != expect:
                        continue
                    j2 = (j + 1) % m
                    if (u, (m - j2) % m) in fvis:
                        return True
                    if (u, j2) not in bvis:
                        bvis.add((u, j2))
                        bq.append((u, j2))
    return False


#: The batch BFS state's key: one row per query and product state. The row
#: ``(qid, NULL, NULL)`` is the query's answer, told apart by its NULL
#: ``state``, which no transition produces (an edge may lack a vertex id).
BFS_KEYS = ["qid", "vertex", "state"]


def nfa_table(spark: SparkSession, queries: Sequence[tuple[int, int, Nfa]]) -> DataFrame:
    """Every transition of every query's NFA as one row
    ``(qid, state, label, next, accept, target)``; ``qid`` is the query's
    position, ``target`` its destination vertex."""
    return spark.createDataFrame(
        [
            (qid, q, label, q2, q2 in nfa.accept, t)
            for qid, (_, t, nfa) in enumerate(queries)
            for (q, label), nxt in nfa.trans.items()
            for q2 in nxt
        ],
        "qid long, state int, label string, next int, accept boolean, target long",
    )


def bfs_step(state: DataFrame, trans: DataFrame, graph: LabeledGraph) -> DataFrame:
    """One batch BFS iteration over the state ``(qid, vertex, state,
    fresh)``: the fresh rows of queries with no answer row join the
    transition table on ``(qid, state)`` and the edge table on
    ``(vertex, label)``, and the landings merge into the state. A landing on
    the query's target in an accepting state (>= 1 edge, as in
    :func:`nfa_bfs`) merges as the answer row ``(qid, NULL, NULL)``."""
    answered = state.where(F.col("state").isNull()).select("qid")
    frontier = state.where("fresh").join(F.broadcast(answered), "qid", "left_anti")
    e = graph.edges.select(F.col("src").alias("vertex"), "label", F.col("dst").alias("_to"))
    # Null-safe, so a landing on a NULL vertex id is a miss, not NULL.
    missed = ~(F.col("accept") & F.col("_to").eqNullSafe(F.col("target")))
    found = (
        frontier.join(trans, ["qid", "state"])
        .join(e, ["vertex", "label"])
        .select(
            "qid",
            F.when(missed, F.col("_to")).alias("vertex"),
            F.when(missed, F.col("next")).alias("state"),
        )
    )
    return merge_fresh(state, found, BFS_KEYS)


def batch_nfa_bfs(
    graph: LabeledGraph,
    queries: Sequence[tuple[int, int, Nfa]],
    budget: Budget | None = None,
) -> DataFrame:
    """Distributed product-state BFS for a whole workload of NFA queries.

    ``queries``: ``(src, dst, nfa)`` triples; a query's ``qid`` is its
    position. :func:`fixpoint` runs :func:`bfs_step` on one state
    ``(qid, vertex, state, fresh)`` seeded with every query's start state.
    A query is true iff the final state holds its answer row
    ``(qid, NULL, NULL)``; a true query costs at most one more, empty
    iteration. Returns ``(qid, answer)``.
    """
    spark = graph.edges.sparkSession
    # Lazy: the first step materialises it, inside the loop's budget.
    trans = nfa_table(spark, queries).localCheckpoint(eager=False)
    seed = spark.createDataFrame(
        [(qid, s, nfa.start, True) for qid, (s, _, nfa) in enumerate(queries)],
        "qid long, vertex long, state int, fresh boolean",
    )
    final = fixpoint(
        seed,
        lambda state, _: bfs_step(state, trans, graph),
        (budget or Budget(max_iterations=10_000)).start(),
        "batch_nfa_bfs",
    )
    hits = final.where(F.col("state").isNull()).select("qid", F.lit(True).alias("answer"))
    qids = spark.range(len(queries)).select(F.col("id").alias("qid"))
    return qids.join(hits, "qid", "left").fillna(False, subset=["answer"])
