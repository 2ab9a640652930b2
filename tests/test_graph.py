"""Unit tests for the LabeledGraph DataFrame substrate."""
import pandas as pd
import pytest

from repro.core.graph import LabeledGraph
from repro.core.sequential import inout_order


def test_edges_deduplicated(spark):
    g = LabeledGraph.from_edge_list(
        spark, [(1, "a", 2), (1, "a", 2), (1, "b", 2), (2, "a", 1)]
    )
    assert g.num_edges() == 3  # exact duplicate dropped, parallel label kept


def test_missing_column_rejected(spark):
    with pytest.raises(ValueError, match="missing columns"):
        LabeledGraph(spark.createDataFrame(pd.DataFrame({"src": [1], "dst": [2]})))


def test_vertices_cover_both_endpoints(spark):
    g = LabeledGraph.from_edge_list(spark, [(1, "a", 2), (3, "a", 4)])
    assert {r.id for r in g.vertices().collect()} == {1, 2, 3, 4}
    assert g.num_vertices() == 4


def test_labels(spark):
    g = LabeledGraph.from_edge_list(spark, [(1, "a", 2), (2, "b", 3), (3, "a", 1)])
    assert sorted(g.labels()) == ["a", "b"]


def test_inout_rank_tie_break_by_id():
    # 1->2 and 3->4: all four vertices tie on (out+1)*(in+1)=2; ids break ties.
    out_adj = {1: [("a", 2)], 2: [], 3: [("a", 4)], 4: []}
    in_adj = {1: [], 2: [("a", 1)], 3: [], 4: [("a", 3)]}
    aid = inout_order(out_adj, in_adj)
    assert sorted(aid, key=aid.get) == [1, 2, 3, 4]


def test_to_adjacency_roundtrip(spark):
    triples = [(1, "a", 2), (2, "b", 1), (1, "a", 1)]
    g = LabeledGraph.from_edge_list(spark, triples)
    out_adj, in_adj = g.to_adjacency()
    got = {(s, l, t) for s, nb in out_adj.items() for l, t in nb}
    assert got == set(triples)
    got_in = {(s, l, t) for t, nb in in_adj.items() for l, s in nb}
    assert got_in == set(triples)


def test_from_pandas(spark):
    pdf = pd.DataFrame({"src": [1, 2], "label": ["a", "b"], "dst": [2, 3]})
    g = LabeledGraph.from_pandas(spark, pdf)
    assert g.num_edges() == 2
    assert g.to_pandas_edges().shape[0] == 2
