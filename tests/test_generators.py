"""Tests for synthetic graph generators and the paper-figure fixtures."""
import pytest

from repro.baselines.online import Nfa, nfa_bfs
from repro.core.sequential import brute_force_closure
from repro.graphs.generators import (
    ANALOGS,
    FIG1_EDGES,
    FIG2_EDGES,
    ba_graph,
    build_analog,
    er_graph,
    fig1_graph,
    fig2_graph,
)


def edge_set(graph):
    return {(r.src, r.label, r.dst) for r in graph.edges.collect()}


# ---- ER --------------------------------------------------------------------

def test_er_deterministic(spark):
    g1 = er_graph(spark, n_vertices=50, n_edges=200, n_labels=4, seed=7)
    g2 = er_graph(spark, n_vertices=50, n_edges=200, n_labels=4, seed=7)
    assert edge_set(g1) == edge_set(g2)


def test_er_seed_changes_graph(spark):
    g1 = er_graph(spark, n_vertices=50, n_edges=200, n_labels=4, seed=7)
    g2 = er_graph(spark, n_vertices=50, n_edges=200, n_labels=4, seed=8)
    assert edge_set(g1) != edge_set(g2)


def test_er_shape(spark):
    g = er_graph(spark, n_vertices=60, n_edges=300, n_labels=5, seed=1)
    assert g.num_vertices() <= 60
    assert 250 <= g.num_edges() <= 300  # dedup may lose a few
    assert set(g.labels()) <= {f"l{i}" for i in range(5)}
    assert all(r.src != r.dst for r in g.edges.collect())


def test_er_self_loops(spark):
    g = er_graph(spark, n_vertices=40, n_edges=100, n_labels=3, n_loops=25, seed=2)
    loops = [r for r in g.edges.collect() if r.src == r.dst]
    assert 1 <= len(loops) <= 25


def test_er_zipf_label_skew(spark):
    g = er_graph(spark, n_vertices=100, n_edges=2000, n_labels=8, seed=3)
    counts = {r["label"]: r["count"] for r in g.edges.groupBy("label").count().collect()}
    # Zipf exponent 2: l0 dominates, and is ~4x l1.
    assert counts["l0"] == max(counts.values())
    assert counts["l0"] > 2 * counts.get("l1", 0)


# ---- BA --------------------------------------------------------------------

def test_ba_core_is_complete(spark):
    g = ba_graph(spark, n_vertices=60, n_edges=500, n_labels=3, core=8, seed=4)
    arcs = {(r.src, r.dst) for r in g.edges.collect()}
    for i in range(8):
        for j in range(8):
            if i != j:
                assert (i, j) in arcs


def test_ba_deterministic_and_degree_skew(spark):
    g1 = ba_graph(spark, n_vertices=80, n_edges=600, n_labels=4, core=10, seed=5)
    g2 = ba_graph(spark, n_vertices=80, n_edges=600, n_labels=4, core=10, seed=5)
    assert edge_set(g1) == edge_set(g2)
    out_adj, in_adj = g1.to_adjacency()
    degs = {v: len(out_adj[v]) + len(in_adj[v]) for v in out_adj}
    core_avg = sum(degs[v] for v in range(10)) / 10
    tail_avg = sum(degs.get(v, 0) for v in range(70, 80)) / 10
    assert core_avg > 3 * tail_avg  # preferential attachment skew


# ---- figure fixtures -------------------------------------------------------

def test_fig2_shape(spark):
    g = fig2_graph(spark)
    assert g.num_vertices() == 6
    assert g.num_edges() == len(FIG2_EDGES) == 11


def fig1_adjacency():
    out_adj: dict[int, list] = {}
    for s, l, t in FIG1_EDGES:
        out_adj.setdefault(s, []).append((l, t))
        out_adj.setdefault(t, [])
    return out_adj


def test_fig1_q1_true():
    # Q1(A14, A19, (debits, credits)+) = true (paper §I).
    out_adj = fig1_adjacency()
    assert nfa_bfs(out_adj, 14, 19, Nfa.kleene_plus(("debits", "credits")))


def test_fig1_q2_false():
    # Q2(P10, P13, (knows, knows, worksFor)+) = false (paper §I).
    out_adj = fig1_adjacency()
    assert not nfa_bfs(out_adj, 10, 13, Nfa.kleene_plus(("knows", "knows", "worksFor")))


def test_fig1_concise_set_p12_p16():
    # S^2(P12, P16) = {(knows), (knows, worksFor)} (paper §III-C).
    closure = brute_force_closure(fig1_adjacency(), 2)
    got = {L for (s, t, L) in closure if s == 12 and t == 16}
    assert got == {("knows",), ("knows", "worksFor")}


def test_fig1_knows_powers_to_p16():
    # Two P10->P16 paths with sequences knows^3 and knows^4 share MR (knows).
    closure = brute_force_closure(fig1_adjacency(), 1)
    assert (10, 16, ("knows",)) in closure


def test_fig1_mr_example_path_exists():
    # The §III-A path (P10 knows P11 worksFor P12 knows P13 worksFor P16).
    es = set(FIG1_EDGES)
    assert {(10, "knows", 11), (11, "worksFor", 12), (12, "knows", 13),
            (13, "worksFor", 16)} <= es


# ---- analog registry -------------------------------------------------------

def test_analog_registry_complete():
    assert list(ANALOGS) == ["AD", "EP", "TW", "WN", "WS", "WG", "WT", "WB",
                             "WH", "PR", "SO", "LJ", "WF"]
    for a in ANALOGS.values():
        assert a.model in ("er", "ba")
        assert a.n_labels == a.paper[2]  # label-set size preserved exactly
        assert a.n_vertices < a.paper[0]
        assert (a.n_loops > 0) == (a.paper[3] > 0)  # loop presence preserved


def test_analog_ad_builds_to_spec(spark):
    g = build_analog(spark, "AD")
    spec = ANALOGS["AD"]
    assert abs(g.num_edges() - (spec.n_edges + spec.n_loops)) / spec.n_edges < 0.1
    assert g.num_vertices() <= spec.n_vertices
    assert set(g.labels()) <= {f"l{i}" for i in range(spec.n_labels)}
