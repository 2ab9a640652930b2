"""Tests for the Table V engine stand-ins: all engines must agree with the
ground truth (and hence with each other) on L+ and a+.b+ queries."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.engines import (
    DuckDbEngine,
    PythonTraversalEngine,
    SparkSqlEngine,
    rlc_eval,
)
from repro.core.graph import LabeledGraph
from repro.core.labels import all_mrs
from repro.core.sequential import SequentialRlcIndex, brute_force_closure
from repro.experiments.table5 import CountingAdjacency, q4_expansions
from repro.graphs.generators import FIG2_EDGES, fig2_graph
from tests.util import (
    COMMA_EDGES,
    COMMA_QUERIES,
    HOSTILE_LABELS,
    adjacency_edges,
    brute_concat_plus,
    edge_case_graphs,
    hostile_graphs,
    out_adjacency,
    query_universe,
    rand_adjacency,
    seeded_graph,
)


@pytest.fixture(scope="module")
def fig2_driver():
    out_adj = {v: [] for v in range(1, 7)}
    in_adj = {v: [] for v in range(1, 7)}
    for s, l, t in FIG2_EDGES:
        out_adj[s].append((l, t))
        in_adj[t].append((l, s))
    return out_adj, in_adj


@pytest.fixture(scope="module")
def truth(fig2_driver):
    return brute_force_closure(fig2_driver[0], 2)


@pytest.fixture(scope="module")
def duck(fig2_driver):
    import pandas as pd

    pdf = pd.DataFrame(FIG2_EDGES, columns=["src", "label", "dst"])
    eng = DuckDbEngine(pdf)
    yield eng
    eng.close()


ALL = [(s, t, L) for s in range(1, 7) for t in range(1, 7)
       for L in all_mrs(["l1", "l2", "l3"], 2)]


def test_duckdb_engine_plus(duck, truth):
    for s, t, L in ALL:
        assert duck.evaluate(s, t, ("plus", L)) == ((s, t, L) in truth), (s, t, L)


#: Labels with a single quote: the DuckDB engine must bind them, not format
#: them into its SQL.
QUOTED_EDGES = [
    (0, "it's", 1), (1, "a'b", 2), (2, "it's", 0), (2, "a'b", 2),
    (1, "it's", 3), (3, "a'b", 3), (3, "it's", 1),
]


def test_duckdb_engine_quoted_labels():
    import pandas as pd

    out_adj = {v: [] for v in range(4)}
    for s, l, t in QUOTED_EDGES:
        out_adj[s].append((l, t))
    truth = brute_force_closure(out_adj, 2)
    eng = DuckDbEngine(pd.DataFrame(QUOTED_EDGES, columns=["src", "label", "dst"]))
    try:
        plus = {
            (s, t, L): eng.evaluate(s, t, ("plus", L))
            for s, t, L in query_universe(4, all_mrs(["it's", "a'b"], 2))
        }
        assert plus == {q: q in truth for q in plus}
        assert set(plus.values()) == {True, False}
        concat = {
            (s, t): eng.evaluate(s, t, ("concat_plus", "it's", "a'b"))
            for s in range(4) for t in range(4)
        }
        assert concat == {
            (s, t): brute_concat_plus(out_adj, s, t, "it's", "a'b") for s, t in concat
        }
        assert set(concat.values()) == {True, False}
    finally:
        eng.close()


def test_python_engine_plus(fig2_driver, truth):
    eng = PythonTraversalEngine(fig2_driver[0])
    for s, t, L in ALL:
        assert eng.evaluate(s, t, ("plus", L)) == ((s, t, L) in truth), (s, t, L)


@pytest.mark.parametrize("a,b", [("l1", "l2"), ("l2", "l1"), ("l1", "l3")])
def test_engines_concat_plus(fig2_driver, duck, a, b):
    out_adj = fig2_driver[0]
    py = PythonTraversalEngine(out_adj)
    for s in range(1, 7):
        for t in range(1, 7):
            want = brute_concat_plus(out_adj, s, t, a, b)
            assert duck.evaluate(s, t, ("concat_plus", a, b)) == want, (s, t)
            assert py.evaluate(s, t, ("concat_plus", a, b)) == want, (s, t)


def test_rlc_eval_plus(fig2_driver, truth):
    out_adj, in_adj = fig2_driver
    idx = SequentialRlcIndex(out_adj, in_adj, 2)
    for s, t, L in ALL:
        assert rlc_eval(idx, out_adj, s, t, ("plus", L)) == ((s, t, L) in truth)


@pytest.mark.parametrize("a,b", [("l1", "l2"), ("l2", "l1")])
def test_rlc_eval_hybrid_q4(fig2_driver, a, b):
    # The paper's Q4 strategy: online a+-traversal + index probes for b+.
    out_adj, in_adj = fig2_driver
    idx = SequentialRlcIndex(out_adj, in_adj, 2)
    for s in range(1, 7):
        for t in range(1, 7):
            want = brute_concat_plus(out_adj, s, t, a, b)
            assert rlc_eval(idx, out_adj, s, t, ("concat_plus", a, b)) == want, (s, t)


def probe_traversal(idx: SequentialRlcIndex, s: int, t: int, a: str, b: str) -> bool:
    """The first hybrid Q4, kept as a reference: a DFS over every out-edge
    filtered on ``a``, with one public ``query(w, t, (b,))`` call per
    visited vertex."""
    probed: set[int] = set()
    stack = [s]
    while stack:
        for lbl, w in idx.out_adj.get(stack.pop(), ()):
            if lbl != a or w in probed:
                continue
            if idx.query(w, t, (b,)):
                return True
            probed.add(w)
            stack.append(w)
    return False


def forward_concat_plus(idx: SequentialRlcIndex, s: int, t: int, a: str, b: str) -> bool:
    """The one-ended hybrid Q4 that the two-ended ``concat_plus`` replaces,
    kept as its reference: a DFS from ``s`` along ``out_by_label``'s
    ``a``-edges only, testing Algorithm 1 for ``(w, t, (b,))`` inline at
    every visited ``w`` with ``L_in(t)[(b,)]`` fetched once per query."""
    L = (b,)
    in_t = idx.l_in.get(t, {}).get(L, frozenset())
    seen: set[int] = set()
    stack = [s]
    while stack:
        for w in idx.out_by_label.get(stack.pop(), {}).get(a, ()):
            if w in seen:
                continue
            seen.add(w)
            out_w = idx.l_out.get(w, {}).get(L, frozenset())
            if w in in_t or t in out_w or not out_w.isdisjoint(in_t):
                return True
            stack.append(w)
    return False


def q4_graphs() -> dict[str, tuple[list[tuple[int, str, int]], int]]:
    """Edge lists and k: the Spark fixpoints' corner cases, every label of
    ``HOSTILE_LABELS`` (``,`` included) and seeded random graphs."""
    graphs = edge_case_graphs()
    hostile, _ = rand_adjacency(random.Random(5), 9, 30, HOSTILE_LABELS, loops=4)
    graphs["all_hostile_k1"] = (adjacency_edges(hostile), 1)
    for seed in range(12):
        out_adj, _, _, k = seeded_graph(seed)
        graphs[f"seed{seed}"] = (adjacency_edges(out_adj), k)
    return graphs


Q4_GRAPHS = q4_graphs()


def test_q4_graphs_cover_every_k():
    assert {k for _, k in Q4_GRAPHS.values()} == {1, 2, 3}


@pytest.mark.parametrize("name", sorted(Q4_GRAPHS))
def test_concat_plus_matches_probe_traversal(name):
    # Every ordered label pair (a == b included) plus a label absent from the
    # graph; every (s, t), s == t included, plus a vertex absent from it.
    edges, k = Q4_GRAPHS[name]
    vertices = {v for s, _, t in edges for v in (s, t)}
    out_adj = {v: [] for v in vertices}
    in_adj = {v: [] for v in vertices}
    for s, lbl, t in edges:
        out_adj[s].append((lbl, t))
        in_adj[t].append((lbl, s))
    idx = SequentialRlcIndex(out_adj, in_adj, k)
    labels = sorted({lbl for _, lbl, _ in edges}) + ["absent"]
    ends = sorted(vertices) + [max(vertices, default=0) + 1]
    answers = set()
    for a in labels:
        for b in labels:
            for s in ends:
                for t in ends:
                    got = idx.concat_plus(s, t, a, b)
                    assert got is brute_concat_plus(out_adj, s, t, a, b), (a, b, s, t)
                    assert got is probe_traversal(idx, s, t, a, b), (a, b, s, t)
                    assert got is forward_concat_plus(idx, s, t, a, b), (a, b, s, t)
                    assert rlc_eval(idx, out_adj, s, t, ("concat_plus", a, b)) is got
                    answers.add(got)
    assert answers == ({False} if name in ("empty", "one_edge") else {True, False})


def edge_index(edges: list[tuple[int, str, int]], k: int) -> tuple[dict, SequentialRlcIndex]:
    """The out-adjacency of ``edges`` and the index built on them."""
    out_adj = out_adjacency(edges)
    in_adj = {v: [] for v in out_adj}
    for s, lbl, t in edges:
        in_adj[t].append((lbl, s))
    return out_adj, SequentialRlcIndex(out_adj, in_adj, k)


def broom(fan: int, reachable: bool) -> list[tuple[int, str, int]]:
    """A broom: ``s = 0`` has an ``a``-fan of ``fan`` vertices, each the
    head of an ``a``-path of three more, and ``t = 1`` has one
    ``b``-predecessor, ``2``. The first fan vertex has an ``a``-edge to ``2``
    iff ``reachable``, which makes ``(0, 1, a+ . b+)`` true."""
    edges = [(2, "b", 1)]
    for i in range(fan):
        head = 3 + 4 * i
        edges += [(0, "a", head)] + [(head + j, "a", head + j + 1) for j in range(3)]
    if reachable:
        edges.append((3, "a", 2))
    return edges


@pytest.mark.parametrize("reachable", [True, False])
def test_concat_plus_broom_expands_the_small_side(reachable):
    # The forward side expands s, then its stack holds the whole fan while
    # the backward one holds t alone: the backward side expands t, whose
    # b-predecessor 2 is the witness, or else 2, which has none. The
    # one-ended search walks the fan.
    out_adj, idx = edge_index(broom(50, reachable), 2)
    assert brute_concat_plus(out_adj, 0, 1, "a", "b") is reachable
    succ, pred = idx.out_by_label, idx.in_by_label
    [(forward, backward)] = q4_expansions(idx, [(0, 1, ("concat_plus", "a", "b"))])
    assert (forward, backward) == (1, 1 if reachable else 2)
    assert idx.out_by_label is succ and idx.in_by_label is pred
    assert idx.concat_plus(0, 1, "a", "b") is reachable
    counted = idx.out_by_label = CountingAdjacency(succ)
    assert forward_concat_plus(idx, 0, 1, "a", "b") is reachable
    assert counted.gets > 50


def test_concat_plus_ties_go_forward():
    # s has two a-successors and t two b-predecessors, all dead ends. After
    # s and t are expanded both stacks hold two vertices, so the forward
    # side takes the tie and finishes first: 3 forward expansions and 1
    # backward, where ties going backward would give 1 and 3.
    _, idx = edge_index([(0, "a", 2), (0, "a", 3), (4, "b", 1), (5, "b", 1)], 2)
    assert q4_expansions(idx, [(0, 1, ("concat_plus", "a", "b"))]) == [(3, 1)]


@settings(max_examples=200, deadline=None)
@given(hostile_graphs(), st.data())
def test_concat_plus_matches_brute_force_on_hostile_graphs(graph, data):
    """On random small graphs over hostile labels (self loops, ``a == b``,
    labels absent from the graph, unknown ``s`` and ``t``) the two-ended Q4
    and ``rlc_eval`` answer as the brute-force Q4 does."""
    out_adj, in_adj, labels, k = graph
    idx = SequentialRlcIndex(out_adj, in_adj, k)
    a, b = (data.draw(st.sampled_from(labels + ["absent"])) for _ in range(2))
    ends = range(len(out_adj) + 1)  # the last one is not in the graph
    for s in ends:
        for t in ends:
            want = brute_concat_plus(out_adj, s, t, a, b)
            assert idx.concat_plus(s, t, a, b) is want, (a, b, s, t)
            assert rlc_eval(idx, out_adj, s, t, ("concat_plus", a, b)) is want, (a, b, s, t)


def test_concat_plus_needs_a_graph(fig2_driver):
    # An index wrapped from entries (RlcIndex.to_driver) has no adjacency:
    # Q4 must raise, not answer False.
    idx = SequentialRlcIndex(*fig2_driver, 2)
    lo, li = idx.entries()
    clone = SequentialRlcIndex.from_entries(
        idx.aid, 2,
        [(v, h, m) for v, es in lo.items() for h, m in es],
        [(v, h, m) for v, es in li.items() for h, m in es],
    )
    assert idx.concat_plus(3, 1, "l2", "l1")
    with pytest.raises(ValueError):
        clone.concat_plus(3, 1, "l2", "l1")
    with pytest.raises(ValueError):
        rlc_eval(clone, fig2_driver[0], 3, 1, ("concat_plus", "l2", "l1"))
    assert rlc_eval(clone, fig2_driver[0], 3, 6, ("plus", ("l2", "l1")))


def test_spark_sql_engine(spark, truth):
    eng = SparkSqlEngine(fig2_graph(spark))
    assert eng.evaluate(3, 6, ("plus", ("l2", "l1"))) is True
    assert eng.evaluate(1, 3, ("plus", ("l1",))) is False


def test_spark_sql_engine_q4(spark, fig2_driver):
    eng = SparkSqlEngine(fig2_graph(spark))
    want = brute_concat_plus(fig2_driver[0], 3, 1, "l2", "l1")
    assert eng.evaluate(3, 1, ("concat_plus", "l2", "l1")) == want


def test_engines_label_with_comma(spark):
    """A label containing ``,`` is one label to Sys1 and Sys2 alike."""
    sys1 = SparkSqlEngine(LabeledGraph.from_edge_list(spark, COMMA_EDGES))
    out_adj = {v: [] for v in range(3)}
    for s, l, t in COMMA_EDGES:
        out_adj[s].append((l, t))
    sys2 = PythonTraversalEngine(out_adj)
    for (s, t, L), want in COMMA_QUERIES:
        assert sys1.evaluate(s, t, ("plus", L)) is want, (s, t, L)
        assert sys2.evaluate(s, t, ("plus", L)) is want, (s, t, L)
