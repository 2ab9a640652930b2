"""Tests for the §VI-c query-set generator."""
import pytest

from repro.baselines.online import Nfa, nfa_bfs
from repro.core.labels import is_primitive
from repro.core.querygen import generate_query_sets, queries_to_df
from tests.util import seeded_graph


@pytest.fixture(scope="module")
def graph():
    import random

    from tests.util import rand_adjacency

    labels = ["a", "b", "c"]
    out_adj, in_adj = rand_adjacency(random.Random(3), 25, 120, labels, loops=3)
    return out_adj, in_adj, labels


def test_sets_are_disjoint_and_correct(graph):
    out_adj, in_adj, labels = graph
    trues, falses = generate_query_sets(
        out_adj, in_adj, labels, n_true=20, n_false=20, mr_len=2, seed=1
    )
    assert len(falses) == 20
    for s, t, L in trues:
        assert nfa_bfs(out_adj, s, t, Nfa.kleene_plus(L)), (s, t, L)
    for s, t, L in falses:
        assert not nfa_bfs(out_adj, s, t, Nfa.kleene_plus(L)), (s, t, L)


def test_deterministic(graph):
    out_adj, in_adj, labels = graph
    a = generate_query_sets(out_adj, in_adj, labels, n_true=10, n_false=10, seed=7)
    b = generate_query_sets(out_adj, in_adj, labels, n_true=10, n_false=10, seed=7)
    assert a == b
    c = generate_query_sets(out_adj, in_adj, labels, n_true=10, n_false=10, seed=8)
    assert a != c


@pytest.mark.parametrize("mr_len", [1, 2, 3])
def test_constraint_shape(graph, mr_len):
    out_adj, in_adj, labels = graph
    trues, falses = generate_query_sets(
        out_adj, in_adj, labels, n_true=5, n_false=5, mr_len=mr_len, seed=2
    )
    for s, t, L in trues + falses:
        assert len(L) == mr_len
        assert is_primitive(L)
        if mr_len <= len(labels):
            assert len(set(L)) == mr_len  # distinct labels, like the paper's (a o b)+


def test_attempt_cap_terminates():
    # A graph with no edges can never produce true queries; the cap stops us.
    out_adj = {0: [], 1: []}
    in_adj = {0: [], 1: []}
    trues, falses = generate_query_sets(
        out_adj, in_adj, ["a", "b"], n_true=5, n_false=5, seed=0, max_attempts=50
    )
    assert trues == []
    assert len(falses) == 5


def test_queries_to_df(spark, graph):
    out_adj, in_adj, labels = graph
    trues, _ = generate_query_sets(out_adj, in_adj, labels, n_true=5, n_false=0, seed=1)
    df = queries_to_df(spark, trues)
    assert df.columns == ["qid", "src", "dst", "mr"]
    assert df.count() == len(trues)


def test_queries_to_df_rejects_separator_in_label(spark):
    # A merged MR string would look up ("a", "b") for the label "a,b".
    with pytest.raises(ValueError, match="delimiter"):
        queries_to_df(spark, [(0, 1, ("a", "b")), (0, 1, ("a,b",))])
