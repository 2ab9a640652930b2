"""Tests for the distributed NFA-guided batch BFS baseline."""
import logging

import pytest

from repro.core.closure import Budget, BudgetExceeded
from repro.core.graph import LabeledGraph
from repro.core.labels import all_mrs
from repro.core.sequential import brute_force_closure
from repro.baselines.online import Nfa, batch_nfa_bfs, bfs_step, nfa_table
from repro.graphs.generators import FIG2_EDGES, fig2_graph
from tests.util import (
    COMMA_EDGES,
    COMMA_QUERIES,
    RecordingBudget,
    adjacency_edges,
    brute_concat_plus,
    edge_case_graphs,
    fixpoint_records,
    out_adjacency,
    query_universe,
    seeded_graph,
    spark_jobs,
)


def fig2_out_adj():
    out_adj = {v: [] for v in range(1, 7)}
    for s, l, t in FIG2_EDGES:
        out_adj[s].append((l, t))
    return out_adj


def answers(graph, queries, budget=None):
    """``batch_nfa_bfs`` answers as a list in query order."""
    got = {r.qid: r.answer for r in batch_nfa_bfs(graph, queries, budget).collect()}
    assert sorted(got) == list(range(len(queries)))
    return [got[qid] for qid in range(len(queries))]


def test_batch_bfs_fig2_full_universe(spark):
    g = fig2_graph(spark)
    truth = brute_force_closure(fig2_out_adj(), 2)
    queries = [(s, t, L) for s in range(1, 7) for t in range(1, 7)
               for L in all_mrs(["l1", "l2", "l3"], 2)]
    ans = answers(g, [(s, t, Nfa.kleene_plus(L)) for s, t, L in queries])
    for got, (s, t, L) in zip(ans, queries):
        assert got == ((s, t, L) in truth), (s, t, L)


@pytest.mark.parametrize("seed", [2])
def test_batch_bfs_random_graph(spark, seed):
    out_adj, _, labels, k = seeded_graph(seed)
    g = LabeledGraph.from_edge_list(spark, adjacency_edges(out_adj))
    truth = brute_force_closure(out_adj, k)
    queries = query_universe(len(out_adj), all_mrs(labels, k))[:400]
    ans = answers(g, [(s, t, Nfa.kleene_plus(L)) for s, t, L in queries])
    for got, (s, t, L) in zip(ans, queries):
        assert got == ((s, t, L) in truth), (s, t, L)


def test_batch_bfs_fig2_concat_plus(spark):
    """Q4 ``a+ . b+`` for every (s, t) of Fig. 2 and three label pairs, in
    one batch."""
    out_adj = fig2_out_adj()
    queries = [(s, t, a, b) for a, b in [("l1", "l2"), ("l2", "l1"), ("l1", "l3")]
               for s in range(1, 7) for t in range(1, 7)]
    ans = answers(
        fig2_graph(spark), [(s, t, Nfa.concat_plus(a, b)) for s, t, a, b in queries]
    )
    want = [brute_concat_plus(out_adj, s, t, a, b) for s, t, a, b in queries]
    assert ans == want and set(want) == {True, False}


def test_batch_bfs_label_with_comma(spark):
    g = LabeledGraph.from_edge_list(spark, COMMA_EDGES)
    queries = [(s, t, Nfa.kleene_plus(L)) for (s, t, L), _ in COMMA_QUERIES]
    assert answers(g, queries) == [want for _, want in COMMA_QUERIES]


def test_batch_bfs_edge_without_vertex_id(spark):
    """A landing on a NULL vertex id is a dead end, not an answer row."""
    edges = [(0, "a", None), (1, "a", 2)]
    g = LabeledGraph(spark.createDataFrame(edges, "src long, label string, dst long"))
    queries = [(0, 2, Nfa.kleene_plus(("a",))), (1, 2, Nfa.kleene_plus(("a",)))]
    assert answers(g, queries) == [False, True]


def test_batch_bfs_logs_each_iteration(spark, caplog):
    """One fixpoint record per iteration, the empty last one included.
    Neither query is answered, so the loop visits every product state
    reachable from the starts: the logged new-state counts add up to that,
    less the two start states, and Budget.check sees the running visited
    size, which is also the logged total."""
    queries = [(3, 4, Nfa.kleene_plus(("l2", "l1"))), (3, 2, Nfa.concat_plus("l1", "l2"))]
    reachable = 8 + 9  # product states reachable from (3, start) on Fig. 2
    budget = RecordingBudget()
    with caplog.at_level(logging.INFO, logger="repro.core.closure"):
        assert answers(fig2_graph(spark), queries, budget) == [False, False]
    logged = fixpoint_records(caplog, "batch_nfa_bfs")
    its = [it for it, _, _, _ in logged]
    new = [n for _, n, _, _ in logged]
    assert its == list(range(1, len(logged) + 1)) and len(logged) >= 2
    assert new[-1] == 0 and all(new[:-1])
    assert all(sec >= 0 for _, _, _, sec in logged)
    assert sum(new) == reachable - len(queries)
    totals = [len(queries) + sum(new[:i]) for i in its[:-1]]
    assert budget.checks == list(zip(its[:-1], totals))
    assert [total for _, _, total, _ in logged] == totals + totals[-1:]


def test_batch_bfs_budget_time_exceeded(spark):
    queries = [(3, 4, Nfa.kleene_plus(("l2", "l1")))]
    with pytest.raises(BudgetExceeded):
        batch_nfa_bfs(fig2_graph(spark), queries, Budget(max_seconds=0.0))


def test_bfs_step_starts_no_job(spark):
    """Planning an iteration from a checkpointed state runs no Spark job:
    only the loop's one checkpoint per iteration does work. The step expands
    query 0 and not query 1, which already has its answer row."""
    g = fig2_graph(spark)
    queries = [(3, 4, Nfa.kleene_plus(("l2", "l1"))), (3, 2, Nfa.concat_plus("l1", "l2"))]
    trans = nfa_table(spark, queries).localCheckpoint()
    state = spark.createDataFrame(
        [(0, 3, 0, True), (1, 3, 0, True), (1, None, None, False)],
        "qid long, vertex long, state int, fresh boolean",
    ).localCheckpoint()
    step, planned = spark_jobs(spark, lambda: bfs_step(state, trans, g))
    assert planned == 0
    stepped, ran = spark_jobs(spark, step.localCheckpoint)
    assert ran > 0
    assert {r.qid for r in stepped.where("fresh").collect()} == {0}


@pytest.mark.parametrize("case", edge_case_graphs())
def test_batch_bfs_edge_cases_match_brute_force(spark, case):
    """Every (s, t, L+) over the case's vertices, one vertex outside the
    graph and its labels, in one batch. The ``s == t`` queries start in an
    accepting state, so they check that an answer needs at least one edge."""
    edges, k = edge_case_graphs()[case]
    out_adj = out_adjacency(edges)
    g = LabeledGraph(spark.createDataFrame(edges, "src long, label string, dst long"))
    vertices = sorted(out_adj) + [max(out_adj, default=0) + 1]
    mrs = all_mrs({lbl for _, lbl, _ in edges} or {"a"}, k)
    queries = [(s, t, L) for s in vertices for t in vertices for L in mrs]
    truth = brute_force_closure(out_adj, k)
    ans = answers(g, [(s, t, Nfa.kleene_plus(L)) for s, t, L in queries])
    assert ans == [(s, t, L) in truth for s, t, L in queries]
