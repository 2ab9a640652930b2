"""Tests for the distributed concise closure (ETC) against brute force and a
DuckDB recursive-CTE oracle, and for its hop table against driver
references."""
import logging
from types import SimpleNamespace

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st
from pyspark.sql import functions as F

from repro.core import closure
from repro.core.closure import Budget, BudgetExceeded, EtcIndex, concise_closure, mr_hops
from repro.core.graph import LabeledGraph
from repro.core.labels import Seq, is_primitive
from repro.core.querygen import queries_to_df
from repro.core.sequential import Adjacency, brute_force_closure
from repro.graphs.generators import FIG2_EDGES, fig2_graph
from repro.oracle import assert_equivalent
from tests.util import (
    COMMA_EDGES,
    RecordingBudget,
    adjacency_edges,
    edge_case_graphs,
    fixpoint_records,
    hostile_graphs,
    out_adjacency,
    path_table,
    seeded_graph,
    spark_jobs,
)

#: Edge lists checked at k=3: Fig. 2 and two random graphs with 3 and 2 labels.
K3_GRAPHS = {
    "fig2": FIG2_EDGES,
    "seed5": adjacency_edges(seeded_graph(5)[0]),
    "seed7": adjacency_edges(seeded_graph(7)[0]),
}


def driver_hops(out_adj: Adjacency, k: int) -> set[tuple[Seq, int, int]]:
    """Reference hop table: every exact path sequence of length <= k,
    enumerated on the driver and kept iff ``is_primitive``."""
    hops = set()
    for u in out_adj:
        level = {(u, ())}
        for _ in range(k):
            level = {(y, seq + (lbl,)) for x, seq in level for lbl, y in out_adj[x]}
            hops |= {(seq, u, y) for y, seq in level if is_primitive(seq)}
    return hops


def closure_rows(closure) -> set[tuple[int, int, Seq]]:
    return {(r.src, r.dst, tuple(r.mr)) for r in closure.collect()}


def brute_rows(out_adj: Adjacency, k: int) -> set[tuple[int, int, Seq]]:
    return set(brute_force_closure(out_adj, k))


@pytest.fixture(scope="module")
def fig2(spark):
    return fig2_graph(spark)


@pytest.fixture(scope="module")
def fig2_closure(spark, fig2):
    return concise_closure(fig2, 2).cache()


def test_mr_hops_only_primitive(spark, fig2):
    hops = mr_hops(fig2, 2).collect()
    assert all(is_primitive(tuple(r.mr)) for r in hops)
    # (l2,l2) from v1 to v4 is not primitive, so it is not a hop; (l2) hops exist.
    assert {(r.src, r.dst) for r in hops if r.mr == ["l2"]} >= {(1, 3), (3, 1), (3, 4)}


def test_mr_hops_plans_no_python_udf(spark, fig2):
    plan = mr_hops(fig2, 2)._jdf.queryExecution().executedPlan().toString()
    assert "EvalPython" not in plan


def builder_hops(out_adj: Adjacency, k: int) -> set[tuple[Seq, int, int]]:
    """The reference for the RLC builder's hop table (the dict BFS it
    replaced), which keeps only primitive sequences."""
    return {
        (seq, x, y)
        for x, row in path_table(out_adj, k).items()
        for seq, ys in row.items()
        for y in ys
    }


@pytest.mark.parametrize("graph", K3_GRAPHS)
def test_mr_hops_matches_driver_reference(spark, graph):
    """One hop relation: ETC's ``mr_hops`` equals both the independent
    driver enumeration and the RLC builder's hop table."""
    edges = K3_GRAPHS[graph]
    g = LabeledGraph.from_edge_list(spark, edges)
    got = {(tuple(r.mr), r.src, r.dst) for r in mr_hops(g, 3).collect()}
    assert got == driver_hops(out_adjacency(edges), 3)
    assert got == builder_hops(out_adjacency(edges), 3)


def test_closure_matches_brute_force_fig2(spark, fig2, fig2_closure):
    assert closure_rows(fig2_closure) == brute_rows(out_adjacency(FIG2_EDGES), 2)


@pytest.mark.parametrize("graph", K3_GRAPHS)
def test_closure_matches_brute_force_k3(spark, graph):
    edges = K3_GRAPHS[graph]
    g = LabeledGraph.from_edge_list(spark, edges)
    assert closure_rows(concise_closure(g, 3)) == brute_rows(out_adjacency(edges), 3)


def test_closure_logs_each_iteration(spark, fig2, caplog):
    """One INFO record per fixpoint iteration, the empty last one included;
    the logged deltas add up to the closure, and Budget.check still runs
    after every non-empty iteration with the cumulative row count, which is
    also the logged running total."""
    budget = RecordingBudget()
    with caplog.at_level(logging.INFO, logger="repro.core.closure"):
        closure = concise_closure(fig2, 2, budget)
    logged = fixpoint_records(caplog, "concise_closure(ETC)")
    its = [it for it, _, _, _ in logged]
    deltas = [n for _, n, _, _ in logged]
    assert its == list(range(1, len(logged) + 1)) and len(logged) >= 2
    assert deltas[-1] == 0 and all(deltas[:-1])
    assert all(sec >= 0 for _, _, _, sec in logged)
    hops = mr_hops(fig2, 2).count()
    assert hops + sum(deltas) == closure.count() == 42
    totals = [hops + sum(deltas[:i]) for i in its[:-1]]
    assert budget.checks == list(zip(its[:-1], totals))
    logged_totals = [total for _, _, total, _ in logged]
    assert budget.checks == list(zip(its[:-1], logged_totals[:-1]))
    assert logged_totals[-1] == logged_totals[-2] == 42


@pytest.mark.parametrize("seed", [1, 4])
def test_closure_matches_brute_force_random(spark, seed):
    out_adj, _, _, k = seeded_graph(seed)
    g = LabeledGraph.from_edge_list(spark, adjacency_edges(out_adj))
    assert closure_rows(concise_closure(g, k)) == brute_rows(out_adj, k)


def test_closure_duckdb_recursive_cte_oracle(spark, fig2, fig2_closure):
    """The per-L closure equals DuckDB's recursive-CTE evaluation of L+."""
    got = (
        fig2_closure.where(F.col("mr") == F.array(F.lit("l2"), F.lit("l1")))
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


def test_closure_keeps_comma_label_sequences_apart(spark):
    g = LabeledGraph.from_edge_list(spark, COMMA_EDGES)
    closure = concise_closure(g, 2)
    got = closure_rows(closure)
    assert got == brute_rows(out_adjacency(COMMA_EDGES), 2)
    assert not {(s, t) for s, t, _ in got} & {(0, 0), (1, 1)}
    assert (1, 0, ("a", "b")) in got and (0, 1, ("a,b",)) in got
    etc = EtcIndex(closure, 2)
    assert etc.to_driver()[(1, 0)] == {("a", "b")}
    # "a,b" cannot be a query label (encode refuses it); the others can.
    queries = [(1, 0, ("a", "b")), (0, 0, ("a", "b")), (1, 2, ("a",)), (0, 2, ("a",))]
    ans = {r.qid: r.answer for r in etc.query_batch(queries_to_df(spark, queries)).collect()}
    assert ans == {0: True, 1: False, 2: True, 3: False}


@pytest.mark.parametrize("case", edge_case_graphs())
def test_closure_edge_cases_match_brute_force(spark, case):
    edges, k = edge_case_graphs()[case]
    g = LabeledGraph(spark.createDataFrame(edges, "src long, label string, dst long"))
    got = closure_rows(concise_closure(g, k))
    assert got == brute_rows(out_adjacency(edges), k)
    assert bool(got) == bool(edges)


def test_closure_is_one_job_with_no_shuffle(spark, fig2, monkeypatch):
    """The closure is the hop table's collect plus one job that closes
    each source's reach inside its own partition: no job per iteration and
    no exchange in the closure job's plan."""
    plans = []
    frame = type(fig2.edges)
    checkpoint = frame.localCheckpoint

    def spy(self, *args, **kwargs):
        plans.append(self._jdf.queryExecution().executedPlan().toString())
        return checkpoint(self, *args, **kwargs)

    monkeypatch.setattr(frame, "localCheckpoint", spy)
    closure, jobs = spark_jobs(spark, lambda: concise_closure(fig2, 2))
    assert jobs <= 2
    (plan,) = plans
    assert "MapInArrow" in plan and "Exchange" not in plan
    assert closure_rows(closure) == brute_rows(out_adjacency(FIG2_EDGES), 2)


def test_closure_step_starts_no_job(spark, fig2):
    """A closure step, one task's level-by-level closing of its sources
    over the broadcast hop arrays, runs in numpy and starts no Spark job:
    only ``concise_closure``'s checkpointed ``mapInArrow`` job does work."""
    hops = SimpleNamespace(value=closure._hops(fig2, 2))
    slices = pa.record_batch([pa.array([0])], names=["id"])

    def step():
        batches = closure._close_slices(
            hops, SimpleNamespace(add=lambda _: None), Budget().start(), 0.0, 1, "t", [slices]
        )
        return {(r["src"], r["dst"], tuple(r["mr"])) for b in batches for r in b.to_pylist()}

    rows, stepped = spark_jobs(spark, step)
    assert stepped == 0
    assert rows == brute_rows(out_adjacency(FIG2_EDGES), 2)
    _, ran = spark_jobs(spark, lambda: concise_closure(fig2, 2))
    assert ran > 0


@settings(max_examples=2, deadline=None)
@given(st.lists(hostile_graphs(), min_size=1, max_size=6), st.integers(1, 3))
def test_closure_matches_brute_force_on_hostile_graphs(spark, graphs, k):
    """On random small graphs over hostile labels (self loops, the MR
    separator, the empty label) the closure equals the brute-force one.
    Each example closes several graphs at once, as one disjoint union,
    because every closure pays about a second of Spark fixed cost."""
    out_adj = {}
    for out, _, _, _ in graphs:
        base = len(out_adj)
        out_adj.update({base + v: [(lbl, base + w) for lbl, w in adj] for v, adj in out.items()})
    edges = adjacency_edges(out_adj)
    g = LabeledGraph(spark.createDataFrame(edges, "src long, label string, dst long"))
    assert closure_rows(concise_closure(g, k)) == brute_rows(out_adj, k)


def test_close_slices_in_small_chunks(spark, monkeypatch):
    """A task that expands each level one row at a time yields the
    closure once, row for row, with the same per-level deltas as a task
    that expands each level at once: rows found by an earlier chunk of a
    level are known to the later ones. A diamond ``0 → {1, 2} → 3`` finds
    ``(0, 3)`` from two chunks of one level; a random graph sits beside it."""
    edges = [(0, "a", 1), (0, "a", 2), (1, "a", 3), (2, "a", 3), (3, "a", 4)]
    edges += [(s + 5, lbl, t + 5) for s, lbl, t in adjacency_edges(seeded_graph(5)[0])]
    out_adj = out_adjacency(edges)
    g = LabeledGraph(spark.createDataFrame(edges, "src long, label string, dst long"))
    hops = SimpleNamespace(value=closure._hops(g, 3))
    slices = pa.record_batch([pa.array([0, 1])], names=["id"])

    def run(chunk):
        monkeypatch.setattr(closure, "_CHUNK", chunk)
        levels = []
        batches = closure._close_slices(
            hops, SimpleNamespace(add=levels.append), Budget().start(), 0.0, 2, "t", [slices]
        )
        rows = [(r["src"], r["dst"], tuple(r["mr"])) for b in batches for r in b.to_pylist()]
        return rows, [[delta for delta, _ in slice_levels] for slice_levels in levels]

    rows, levels = run(1)
    assert len(rows) == len(set(rows))
    assert set(rows) == brute_rows(out_adj, 3)
    whole_rows, whole_levels = run(1 << 22)
    assert (sorted(rows), levels) == (sorted(whole_rows), whole_levels)


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
    assert ("l2", "l1") in driver[(3, 6)]


def test_budget_rows_cover_the_hop_table(spark, fig2, caplog):
    """The row cap is checked against the hop rows before any fixpoint
    iteration runs."""
    budget = RecordingBudget(max_rows=1)
    with caplog.at_level(logging.INFO, logger="repro.core.closure"):
        with pytest.raises(BudgetExceeded, match="exceeded 1 rows"):
            concise_closure(fig2, 2, budget=budget)
    assert budget.checks == []
    assert fixpoint_records(caplog, "concise_closure(ETC)") == []


def test_budget_rows_exceeded(spark, fig2):
    with pytest.raises(BudgetExceeded):
        concise_closure(fig2, 2, budget=Budget(max_rows=5))


def test_budget_time_exceeded(spark, fig2):
    with pytest.raises(BudgetExceeded):
        concise_closure(fig2, 2, budget=Budget(max_seconds=0.0))


def test_budget_iterations_exceeded(spark):
    """A 3-hop chain needs two levels past its hop rows, so a level cap of
    one raises inside the task that closes the chain's head."""
    chain = LabeledGraph.from_edge_list(spark, [(0, "a", 1), (1, "a", 2), (2, "a", 3)])
    with pytest.raises(BudgetExceeded, match="exceeded 1 iterations"):
        concise_closure(chain, 1, budget=Budget(max_iterations=1))
    assert concise_closure(chain, 1, budget=Budget(max_iterations=2)).count() == 6


def test_budget_rows_between_hops_and_closure(spark, fig2):
    """A row cap that the hop rows meet but the closure exceeds raises once
    the closure grows past it."""
    hops = mr_hops(fig2, 2).count()
    assert hops < 42
    with pytest.raises(BudgetExceeded, match=f"exceeded {hops} rows"):
        concise_closure(fig2, 2, budget=Budget(max_rows=hops))
