"""Tests for the distributed concise closure (ETC) against brute force and a
DuckDB recursive-CTE oracle, and for its native primitivity predicate
against :func:`repro.core.labels.is_primitive`."""
import logging
from itertools import product

import pytest
from pyspark.sql import functions as F

from repro.core.closure import (
    Budget,
    BudgetExceeded,
    EtcIndex,
    concise_closure,
    exact_paths,
    mr_hops,
    primitive_predicate,
)
from repro.core.graph import LabeledGraph
from repro.core.labels import encode, is_primitive
from repro.core.querygen import queries_to_df
from repro.core.sequential import Adjacency, brute_force_closure
from repro.graphs.generators import FIG2_EDGES, fig2_graph
from repro.oracle import assert_equivalent
from tests.util import adjacency_edges, seeded_graph

#: Labels that break string-joined MRs (",") or SQL quoting ("it's"), plus
#: non-ASCII and the empty label.
HOSTILE_LABELS = ["a", "b", ",", "it's", "é", ""]

#: Edge lists checked at k=3: Fig. 2 and two random graphs with 3 and 2 labels.
K3_GRAPHS = {
    "fig2": FIG2_EDGES,
    "seed5": adjacency_edges(seeded_graph(5)[0]),
    "seed7": adjacency_edges(seeded_graph(7)[0]),
}


def out_adjacency(edges: list[tuple[int, str, int]]) -> Adjacency:
    out_adj: Adjacency = {}
    for s, lbl, t in edges:
        out_adj.setdefault(s, []).append((lbl, t))
        out_adj.setdefault(t, [])
    return out_adj


def driver_hops(out_adj: Adjacency, k: int) -> set[tuple[str, int, int]]:
    """Reference hop table: every exact path sequence of length <= k,
    enumerated on the driver and kept iff ``is_primitive``."""
    hops = set()
    for u in out_adj:
        level = {(u, ())}
        for _ in range(k):
            level = {(y, seq + (lbl,)) for x, seq in level for lbl, y in out_adj[x]}
            hops |= {(encode(seq), u, y) for y, seq in level if is_primitive(seq)}
    return hops


def closure_rows(closure) -> set[tuple[int, int, str]]:
    return {(r.src, r.dst, r.mr) for r in closure.collect()}


def brute_rows(out_adj: Adjacency, k: int) -> set[tuple[int, int, str]]:
    return {(s, t, encode(L)) for s, t, L in brute_force_closure(out_adj, k)}


@pytest.fixture(scope="module")
def fig2(spark):
    return fig2_graph(spark)


@pytest.fixture(scope="module")
def fig2_closure(spark, fig2):
    return concise_closure(fig2, 2).cache()


def test_exact_paths_level1_is_edges(spark, fig2):
    p1 = exact_paths(fig2, 1)
    got = {(r.src, r.dst, tuple(r.seq)) for r in p1.collect()}
    want = {(r.src, r.dst, (r.label,)) for r in fig2.edges.collect()}
    assert got == want


def test_exact_paths_depth2_count(spark, fig2):
    paths = {(r.src, r.dst, tuple(r.seq)) for r in exact_paths(fig2, 2).collect()}
    # contains e.g. the length-2 path v3 -l2-> v4 -l1-> v1
    assert (3, 1, ("l2", "l1")) in paths
    assert all(1 <= len(seq) <= 2 for _, _, seq in paths)


def test_mr_hops_only_primitive(spark, fig2):
    hops = mr_hops(fig2, 2).collect()
    assert all("," not in r.mr or r.mr.split(",")[0] != r.mr.split(",")[1] for r in hops)
    # (l2,l2) from v1 to v4 is not primitive, so it is not a hop; (l2) hops exist.
    assert {(r.src, r.dst) for r in hops if r.mr == "l2"} >= {(1, 3), (3, 1), (3, 4)}


def test_primitive_predicate_matches_is_primitive(spark):
    """The Spark predicate equals ``is_primitive`` on every sequence of
    length 1..5 over hostile labels, and rejects sequences longer than k."""
    seqs = [list(s) for m in range(1, 6) for s in product(HOSTILE_LABELS, repeat=m)]
    df = spark.createDataFrame([(s,) for s in seqs], "seq array<string>")
    rows = df.select("seq", primitive_predicate(5).alias("p5"), primitive_predicate(2).alias("p2"))
    got = {tuple(r.seq): (r.p5, r.p2) for r in rows.collect()}
    assert len(got) == len(seqs) == 9330
    want = {s: (is_primitive(s), len(s) <= 2 and is_primitive(s)) for s in map(tuple, seqs)}
    assert got == want


def test_mr_hops_plans_no_python_udf(spark, fig2):
    plan = mr_hops(fig2, 2)._jdf.queryExecution().executedPlan().toString()
    assert "EvalPython" not in plan


@pytest.mark.parametrize("graph", K3_GRAPHS)
def test_mr_hops_matches_driver_reference(spark, graph):
    edges = K3_GRAPHS[graph]
    g = LabeledGraph.from_edge_list(spark, edges)
    got = {(r.mr, r.src, r.dst) for r in mr_hops(g, 3).collect()}
    assert got == driver_hops(out_adjacency(edges), 3)


def test_closure_matches_brute_force_fig2(spark, fig2, fig2_closure):
    assert closure_rows(fig2_closure) == brute_rows(out_adjacency(FIG2_EDGES), 2)


@pytest.mark.parametrize("graph", K3_GRAPHS)
def test_closure_matches_brute_force_k3(spark, graph):
    edges = K3_GRAPHS[graph]
    g = LabeledGraph.from_edge_list(spark, edges)
    assert closure_rows(concise_closure(g, 3)) == brute_rows(out_adjacency(edges), 3)


class RecordingBudget(Budget):
    def start(self) -> "RecordingBudget":
        self.checks = []
        return super().start()

    def check(self, rows: int, iteration: int, what: str) -> None:
        self.checks.append((iteration, rows))
        super().check(rows, iteration, what)


def test_closure_logs_each_iteration(spark, fig2, caplog):
    """One INFO record per fixpoint iteration, the empty last one included;
    the logged deltas add up to the closure, and Budget.check still runs
    after every non-empty iteration with the cumulative row count."""
    budget = RecordingBudget()
    with caplog.at_level(logging.INFO, logger="repro.core.closure"):
        closure = concise_closure(fig2, 2, budget)
    logged = [r.args for r in caplog.records if r.name == "repro.core.closure"]
    its = [it for it, _, _ in logged]
    deltas = [n for _, n, _ in logged]
    assert its == list(range(1, len(logged) + 1)) and len(logged) >= 2
    assert deltas[-1] == 0 and all(deltas[:-1])
    assert all(sec >= 0 for _, _, sec in logged)
    hops = mr_hops(fig2, 2).count()
    assert hops + sum(deltas) == closure.count() == 42
    totals = [hops + sum(deltas[:i]) for i in its[:-1]]
    assert budget.checks == list(zip(its[:-1], totals))


@pytest.mark.parametrize("seed", [1, 4])
def test_closure_matches_brute_force_random(spark, seed):
    out_adj, _, _, k = seeded_graph(seed)
    g = LabeledGraph.from_edge_list(spark, adjacency_edges(out_adj))
    assert closure_rows(concise_closure(g, k)) == brute_rows(out_adj, k)


def test_closure_duckdb_recursive_cte_oracle(spark, fig2, fig2_closure):
    """The per-L closure equals DuckDB's recursive-CTE evaluation of L+."""
    got = (
        fig2_closure.where(F.col("mr") == "l2,l1")
        .select("src", "dst")
        .distinct()
    )
    sql = """
    WITH RECURSIVE hop AS (
      SELECT e1.src AS src, e2.dst AS dst
      FROM edges e1 JOIN edges e2 ON e1.dst = e2.src
      WHERE e1.label = 'l2' AND e2.label = 'l1'
    ),
    reach(src, dst) AS (
      SELECT src, dst FROM hop
      UNION
      SELECT r.src, h.dst FROM reach r JOIN hop h ON h.src = r.dst
    )
    SELECT DISTINCT src, dst FROM reach
    """
    assert_equivalent(got, sql, edges=fig2.edges)


def test_etc_index_interfaces(spark, fig2, fig2_closure):
    etc = EtcIndex(fig2_closure, 2)
    n = etc.entry_count()
    assert n == fig2_closure.count() == 42
    assert etc.size_bytes() > 16 * n  # 16B pair + >=1 label byte each
    queries = queries_to_df(
        spark,
        [(3, 6, ("l2", "l1")), (1, 3, ("l1",)), (1, 2, ("l2", "l1"))],
    )
    ans = {r.qid: r.answer for r in etc.query_batch(queries).collect()}
    assert ans == {0: True, 1: False, 2: True}
    driver = etc.to_driver()
    assert "l2,l1" in driver[(3, 6)]


def test_budget_rows_exceeded(spark, fig2):
    with pytest.raises(BudgetExceeded):
        concise_closure(fig2, 2, budget=Budget(max_rows=5))


def test_budget_time_exceeded(spark, fig2):
    with pytest.raises(BudgetExceeded):
        concise_closure(fig2, 2, budget=Budget(max_seconds=0.0))
