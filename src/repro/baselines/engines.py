"""Graph-engine stand-ins for the Table V comparison (see DESIGN.md §4).

The paper compares the RLC index against three engines that can evaluate RLC
queries (two anonymized commercial systems and Virtuoso). Those binaries are
unavailable offline, so we implement one engine per architecture class:

- :class:`SparkSqlEngine` ("Sys1") — each query compiled to iterative
  DataFrame joins and executed by Spark, i.e. a distributed dataflow engine
  paying scheduler/shuffle overhead per query;
- :class:`PythonTraversalEngine` ("Sys2") — interpreted tuple-at-a-time
  automaton-guided traversal (the classic single-threaded graph-engine
  evaluation loop), i.e. :func:`repro.baselines.online.nfa_bfs`;
- :class:`DuckDbEngine` ("Virtuoso") — the query rewritten to recursive SQL
  over the edge relation and executed by a columnar in-memory SQL engine,
  which is Virtuoso's architecture class. Labels and vertex ids are bound as
  query parameters, never formatted into the SQL text.

All engines share one interface: ``evaluate(s, t, spec) -> bool`` where
``spec`` is either ``("plus", L)`` for ``L+`` or ``("concat_plus", a, b)``
for the extended query ``a+ . b+`` (Q4). :func:`rlc_eval` evaluates the same
specs with the RLC index — Q4 via the paper's §VI-C strategy of combining an
index lookup with an online traversal.
"""
from __future__ import annotations

import duckdb
import pandas as pd
from pyspark.sql import DataFrame, functions as F

from repro.baselines.online import Nfa, batch_nfa_bfs, nfa_bfs
from repro.core.graph import LabeledGraph
from repro.core.labels import encode
from repro.core.sequential import Adjacency, SequentialRlcIndex

QuerySpec = tuple  # ("plus", L) | ("concat_plus", a, b)


class DuckDbEngine:
    """Recursive-CTE evaluation over the edge table in DuckDB."""

    def __init__(self, edges_pdf: pd.DataFrame):
        self.con = duckdb.connect()
        self.con.register("edges", edges_pdf)

    def close(self) -> None:
        self.con.close()

    @staticmethod
    def _hop_sql(m: int) -> str:
        """SELECT producing the exact-path hop relation (src, dst) for a
        length-``m`` label sequence, whose labels are the first ``m`` ``?``
        parameters."""
        cond = [f"e{i}.dst = e{i+1}.src" for i in range(m - 1)]
        cond += [f"e{i}.label = ?" for i in range(m)]
        return (
            f"SELECT e0.src AS src, e{m-1}.dst AS dst FROM "
            + ", ".join(f"edges e{i}" for i in range(m))
            + " WHERE "
            + " AND ".join(cond)
        )

    def evaluate(self, s: int, t: int, spec: QuerySpec) -> bool:
        if spec[0] == "plus":
            L = spec[1]
            sql = f"""
            WITH RECURSIVE hop AS ({self._hop_sql(len(L))}),
            reach(v) AS (
              SELECT dst FROM hop WHERE src = ?
              UNION
              SELECT hop.dst FROM reach JOIN hop ON hop.src = reach.v
            )
            SELECT 1 FROM reach WHERE v = ? LIMIT 1
            """
            params = [*L, s, t]
        else:
            _, a, b = spec
            sql = """
            WITH RECURSIVE ra(v) AS (
              SELECT dst FROM edges WHERE src = ? AND label = ?
              UNION
              SELECT e.dst FROM ra JOIN edges e ON e.src = ra.v AND e.label = ?
            ),
            rb(v) AS (
              SELECT e.dst FROM edges e JOIN ra ON e.src = ra.v AND e.label = ?
              UNION
              SELECT e.dst FROM rb JOIN edges e ON e.src = rb.v AND e.label = ?
            )
            SELECT 1 FROM rb WHERE v = ? LIMIT 1
            """
            params = [s, a, a, b, b, t]
        return len(self.con.execute(sql, params).fetchall()) > 0


class PythonTraversalEngine:
    """Single-threaded automaton-guided traversal (tuple-at-a-time)."""

    def __init__(self, out_adj: Adjacency):
        self.out_adj = out_adj

    def evaluate(self, s: int, t: int, spec: QuerySpec) -> bool:
        nfa = (
            Nfa.kleene_plus(spec[1])
            if spec[0] == "plus"
            else Nfa.concat_plus(spec[1], spec[2])
        )
        return nfa_bfs(self.out_adj, s, t, nfa)


class SparkSqlEngine:
    """Per-query iterative-join evaluation on Spark (distributed engine with
    per-query planning/scheduling overhead, like the paper's Sys1)."""

    def __init__(self, graph: LabeledGraph):
        self.graph = graph
        self.spark = graph.edges.sparkSession

    def evaluate(self, s: int, t: int, spec: QuerySpec) -> bool:
        if spec[0] == "plus":
            q = self.spark.createDataFrame(
                [(0, s, t, encode(spec[1]))], "qid long, src long, dst long, mr string"
            )
            return batch_nfa_bfs(self.graph, q).collect()[0].answer
        # a+ . b+ : reach_a from s, then reach_b from there, iterative joins.
        _, a, b = spec
        e = self.graph.edges
        ea = e.where(F.col("label") == a).select(F.col("src").alias("u"), F.col("dst").alias("v"))
        eb = e.where(F.col("label") == b).select(F.col("src").alias("u"), F.col("dst").alias("v"))

        def closure_from(seed: DataFrame, hop: DataFrame) -> DataFrame:
            reach = seed.distinct().localCheckpoint()
            frontier = reach
            while True:
                nxt = (
                    frontier.join(hop, F.col("x") == F.col("u"))
                    .select(F.col("v").alias("x"))
                    .distinct()
                    .join(reach, "x", "left_anti")
                    .localCheckpoint()
                )
                if nxt.isEmpty():
                    return reach
                reach = reach.unionByName(nxt).localCheckpoint()
                frontier = nxt

        ra = closure_from(ea.where(F.col("u") == s).select(F.col("v").alias("x")), ea)
        rb_seed = (
            ra.join(eb, F.col("x") == F.col("u")).select(F.col("v").alias("x")).distinct()
        )
        rb = closure_from(rb_seed, eb)
        return not rb.where(F.col("x") == t).isEmpty()


def rlc_eval(
    index: SequentialRlcIndex, out_adj: Adjacency, s: int, t: int, spec: QuerySpec
) -> bool:
    """Evaluate a Table V query with the RLC index.

    ``L+`` is a pure index lookup (Algorithm 1). The extended query
    ``a+ . b+`` uses the paper's hybrid strategy: an online traversal along
    ``a``-labeled edges from ``s``, probing the index with ``(v, t, b+)`` at
    every intermediately visited vertex.
    """
    if spec[0] == "plus":
        return index.query(s, t, tuple(spec[1]))
    _, a, b = spec
    # `probed` holds vertices already reached via >= 1 a-edge; s itself is
    # only probed if an a-cycle leads back to it (a+ needs a nonempty prefix).
    probed: set[int] = set()
    stack = [s]
    while stack:
        v = stack.pop()
        for lbl, w in out_adj.get(v, ()):
            if lbl != a or w in probed:
                continue
            # w is reachable from s via a+; the index answers w ~b+~> t.
            if index.query(w, t, (b,)):
                return True
            probed.add(w)
            stack.append(w)
    return False
