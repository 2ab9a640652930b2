"""Tests for the RLC index's Spark tables and batch query evaluation.

``RlcIndex.query_batch`` answers Definition 4 with joins
(:func:`repro.core.index.covered_pairs`) over entries built by the driver's
Algorithm 2. On each graph below it must agree with both the brute-force
closure and driver Algorithm 1 (``SequentialRlcIndex.query``)."""
import random

import pytest

from repro.core.index import ENTRY_SCHEMA, RlcIndex, covered_pairs
from repro.core.labels import all_mrs
from repro.core.querygen import queries_to_df
from repro.core.sequential import SequentialRlcIndex, brute_force_closure
from repro.experiments.table2 import fig2_adjacency
from tests.util import query_universe, rand_adjacency, rlc_index, seeded_graph

ALL_FIG2_QUERIES = [
    (s, t, L) for s in range(1, 7) for t in range(1, 7) for L in all_mrs(["l1", "l2", "l3"], 2)
]


@pytest.fixture(scope="module")
def fig2_seq():
    out_adj, in_adj = fig2_adjacency()
    return SequentialRlcIndex(out_adj, in_adj, 2)


@pytest.fixture(scope="module")
def fig2_truth():
    return brute_force_closure(fig2_adjacency()[0], 2)


def assert_batch_matches(spark, seq, truth, queries):
    """``query_batch`` over ``seq``'s entries equals the closure and
    ``seq.query`` on every query."""
    batch = rlc_index(spark, seq).query_batch(queries_to_df(spark, queries))
    ans = {r.qid: r.answer for r in batch.collect()}
    assert len(ans) == len(queries)
    for qid, (s, t, L) in enumerate(queries):
        want = (s, t, L) in truth
        assert seq.query(s, t, L) == want, (s, t, L)
        assert ans[qid] == want, (s, t, L)


# ---- batch queries over driver-built entries -------------------------------

def test_batch_queries_match_closure(spark, fig2_seq, fig2_truth):
    assert len(ALL_FIG2_QUERIES) == 324
    assert_batch_matches(spark, fig2_seq, fig2_truth, ALL_FIG2_QUERIES)


@pytest.mark.parametrize("seed", [3, 11])
def test_random_graph_equivalence(spark, seed):
    out_adj, in_adj, labels, k = seeded_graph(seed)
    seq = SequentialRlcIndex(out_adj, in_adj, k)
    queries = query_universe(len(out_adj), all_mrs(labels, k))
    assert_batch_matches(spark, seq, brute_force_closure(out_adj, k), queries)


def test_larger_graph_equivalence(spark):
    out_adj, in_adj = rand_adjacency(random.Random(99), 60, 200, ["a", "b"], loops=4)
    seq = SequentialRlcIndex(out_adj, in_adj, 2)
    queries = query_universe(60, all_mrs(["a", "b"], 2))
    assert_batch_matches(spark, seq, brute_force_closure(out_adj, 2), queries)


def test_driver_queries_match_closure(spark, fig2_seq, fig2_truth):
    # Round trip: Spark tables back to a driver index with the same entries.
    drv = rlc_index(spark, fig2_seq).to_driver()
    assert drv.entries() == fig2_seq.entries()
    for s, t, L in ALL_FIG2_QUERIES:
        assert drv.query(s, t, L) == ((s, t, L) in fig2_truth), (s, t, L)


def test_size_bytes_matches_driver(spark, fig2_seq):
    idx = rlc_index(spark, fig2_seq)
    assert idx.entry_count() == fig2_seq.entry_count() == 26
    assert idx.size_bytes() == fig2_seq.size_bytes() == 296


# ---- covered_pairs unit tests ---------------------------------------------

def _entries(spark, rows):
    return spark.createDataFrame(rows, ENTRY_SCHEMA)


def test_covered_pairs_empty_index(spark):
    pairs = spark.createDataFrame([(1, 2, "a")], "src long, dst long, mr string")
    got = covered_pairs(pairs, _entries(spark, []), _entries(spark, []))
    assert got.count() == 0


def test_covered_pairs_case2(spark):
    pairs = spark.createDataFrame(
        [(1, 2, "a"), (2, 3, "a"), (9, 9, "a")], "src long, dst long, mr string"
    )
    l_out = _entries(spark, [(1, 2, "a")])     # (2,a) in L_out(1): covers 1->2
    l_in = _entries(spark, [(3, 2, "a")])      # (2,a) in L_in(3): covers 2->3
    got = {(r.src, r.dst) for r in covered_pairs(pairs, l_out, l_in).collect()}
    assert got == {(1, 2), (2, 3)}


def test_covered_pairs_case1_requires_same_hub_and_mr(spark):
    pairs = spark.createDataFrame(
        [(1, 3, "a"), (1, 3, "b"), (4, 3, "a")], "src long, dst long, mr string"
    )
    l_out = _entries(spark, [(1, 9, "a"), (4, 8, "a")])
    l_in = _entries(spark, [(3, 9, "a"), (3, 9, "b")])
    got = {(r.src, r.dst, r.mr) for r in covered_pairs(pairs, l_out, l_in).collect()}
    assert got == {(1, 3, "a")}  # hub 9 matches only for mr 'a' from src 1


def test_query_batch_answers_both_ways(spark):
    idx = RlcIndex(
        k=1,
        l_out=_entries(spark, [(1, 9, "a")]),
        l_in=_entries(spark, [(3, 9, "a")]),
        rank=spark.createDataFrame([(1, 2), (3, 3), (9, 1)], "id long, aid int"),
    )
    qdf = spark.createDataFrame(
        [(0, 1, 3, "a"), (1, 3, 1, "a"), (2, 1, 3, "b")],
        "qid long, src long, dst long, mr string",
    )
    ans = {r.qid: r.answer for r in idx.query_batch(qdf).collect()}
    assert ans == {0: True, 1: False, 2: False}
    drv = idx.to_driver()
    assert drv.query(1, 3, ("a",)) and not drv.query(3, 1, ("a",))
