"""Graph-engine stand-ins for the Table V comparison (see DESIGN.md §4).

The paper compares the RLC index against three engines that can evaluate RLC
queries (two anonymized commercial systems and Virtuoso). Those binaries are
unavailable offline, so we implement one engine per architecture class:

- :class:`SparkSqlEngine` ("Sys1") — each query's NFA run as iterative
  DataFrame joins by :func:`repro.baselines.online.batch_nfa_bfs`, i.e. a
  distributed dataflow engine paying scheduler/shuffle overhead per query;
- :class:`PythonTraversalEngine` ("Sys2") — interpreted tuple-at-a-time
  automaton-guided traversal (the classic single-threaded graph-engine
  evaluation loop), i.e. :func:`repro.baselines.online.nfa_bfs`;
- :class:`DuckDbEngine` ("Virtuoso") — the query rewritten to recursive SQL
  over the edge relation and executed by a columnar in-memory SQL engine,
  which is Virtuoso's architecture class. Labels and vertex ids are bound as
  query parameters, never formatted into the SQL text.

All engines share one interface: ``evaluate(s, t, spec) -> bool`` where
``spec`` is either ``("plus", L)`` for ``L+`` or ``("concat_plus", a, b)``
for the extended query ``a+ . b+`` (Q4). Sys1 and Sys2 traverse the same
graph × query-NFA product (:func:`spec_nfa`). :func:`rlc_eval` evaluates the
same specs with the RLC index — Q4 via the paper's §VI-C strategy of
combining index lookups with an online traversal, which
:meth:`SequentialRlcIndex.concat_plus` runs from both ends over the index's
label-grouped neighbours: ``a``-edges forward from ``s`` and ``b``-edges
backward into ``t``.
"""
from __future__ import annotations

import duckdb
import pandas as pd

from repro.baselines.online import Nfa, batch_nfa_bfs, nfa_bfs
from repro.core.graph import LabeledGraph
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


def spec_nfa(spec: QuerySpec) -> Nfa:
    """The query NFA of a spec: ``L+`` or ``a+ . b+``."""
    if spec[0] == "plus":
        return Nfa.kleene_plus(spec[1])
    return Nfa.concat_plus(spec[1], spec[2])


class PythonTraversalEngine:
    """Single-threaded automaton-guided traversal (tuple-at-a-time)."""

    def __init__(self, out_adj: Adjacency):
        self.out_adj = out_adj

    def evaluate(self, s: int, t: int, spec: QuerySpec) -> bool:
        return nfa_bfs(self.out_adj, s, t, spec_nfa(spec))


class SparkSqlEngine:
    """Per-query iterative-join evaluation on Spark (distributed engine with
    per-query planning/scheduling overhead, like the paper's Sys1): every
    spec, ``L+`` and ``a+ . b+`` alike, is one :func:`batch_nfa_bfs` run
    over its query NFA."""

    def __init__(self, graph: LabeledGraph):
        self.graph = graph

    def evaluate(self, s: int, t: int, spec: QuerySpec) -> bool:
        return batch_nfa_bfs(self.graph, [(s, t, spec_nfa(spec))]).collect()[0].answer


def rlc_eval(
    index: SequentialRlcIndex, out_adj: Adjacency, s: int, t: int, spec: QuerySpec
) -> bool:
    """Evaluate a Table V query with the RLC index.

    ``L+`` is a pure index lookup (Algorithm 1). The extended query
    ``a+ . b+`` uses the paper's hybrid strategy
    (:meth:`SequentialRlcIndex.concat_plus`), an online traversal from both
    ends: along ``a``-edges from ``s``, evaluating Algorithm 1 for ``(w, t,
    b+)`` at every visited ``w``, and backward along ``b``-edges into ``t``,
    evaluating it for ``(s, w, a+)``. Every witness ``w`` (``s ~a+~> w ~b+~>
    t``) lies on both sides, so the first side to run out answers False. The
    traversal walks the index's own copy of the graph, so ``out_adj`` is
    unused; it stays in the signature the Table V harnesses call.
    """
    if spec[0] == "plus":
        return index.query(s, t, tuple(spec[1]))
    _, a, b = spec
    return index.concat_plus(s, t, a, b)
