"""Tests for the distributed NFA-guided batch BFS baseline."""
import logging

import pytest

from repro.core.graph import LabeledGraph
from repro.core.labels import all_mrs
from repro.core.sequential import brute_force_closure
from repro.baselines.online import Nfa, batch_nfa_bfs
from repro.graphs.generators import FIG2_EDGES, fig2_graph
from tests.test_closure import RecordingBudget
from tests.test_online import brute_concat_plus
from tests.util import adjacency_edges, query_universe, seeded_graph

#: A label containing the MR delimiter ``,``: ``("a,b",)`` and
#: ``("a", "b")`` are different constraints on this graph.
COMMA_EDGES = [(0, "a,b", 1), (1, "a", 2), (2, "b", 0)]
COMMA_QUERIES = [
    ((0, 1, ("a,b",)), True),
    ((1, 0, ("a", "b")), True),
    ((0, 2, ("a,b",)), False),
]


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


def test_batch_bfs_logs_each_iteration(spark, caplog):
    """One INFO record per iteration, the empty last one included. Neither
    query is answered, so the loop visits every product state reachable from
    the starts: the logged new-state counts add up to that, less the two
    start states, and Budget.check sees the running visited size."""
    queries = [(3, 4, Nfa.kleene_plus(("l2", "l1"))), (3, 2, Nfa.concat_plus("l1", "l2"))]
    reachable = 8 + 9  # product states reachable from (3, start) on Fig. 2
    budget = RecordingBudget()
    with caplog.at_level(logging.INFO, logger="repro.baselines.online"):
        assert answers(fig2_graph(spark), queries, budget) == [False, False]
    logged = [r.args for r in caplog.records if r.name == "repro.baselines.online"]
    its = [it for it, _, _ in logged]
    new = [n for _, n, _ in logged]
    assert its == list(range(1, len(logged) + 1)) and len(logged) >= 2
    assert new[-1] == 0 and all(new[:-1])
    assert all(sec >= 0 for _, _, sec in logged)
    assert sum(new) == reachable - len(queries)
    totals = [len(queries) + sum(new[:i]) for i in its[:-1]]
    assert budget.checks == list(zip(its[:-1], totals))
