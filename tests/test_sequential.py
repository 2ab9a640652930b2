"""Tests for the driver RLC index: Algorithm 1 and the pruned hop-graph labeling.

The strongest check here is the exact reproduction of the paper's Table II
(the full RLC index contents for the Fig. 2 graph with k=2), followed by
fuzzing against the brute-force concise closure: sound + complete (Theorem 3)
and condensed (Theorem 2) on seeded random graphs. The fast builder
(:class:`SequentialRlcIndex`, a pruned BFS over each hop graph) must record
the same entries as the paper's Algorithm 2 verbatim (:class:`Algorithm2Index`).
"""
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.labels import all_mrs, is_primitive
from repro.core.sequential import (
    Algorithm2Index,
    SequentialRlcIndex,
    brute_force_closure,
    hop_table,
    inout_order,
)
from repro.graphs.generators import FIG2_EDGES
from tests.util import (
    HOSTILE_LABELS,
    MergeJoinIndex,
    ProbeCountingIndex,
    assert_matches_merge_join,
    builder_tables,
    condensed_violations,
    hostile_graphs,
    path_table,
    query_universe,
    rand_adjacency,
    seeded_graph,
    table_sets,
)


def fig2_adjacency():
    out_adj: dict[int, list] = {v: [] for v in range(1, 7)}
    in_adj: dict[int, list] = {v: [] for v in range(1, 7)}
    for s, l, t in FIG2_EDGES:
        out_adj[s].append((l, t))
        in_adj[t].append((l, s))
    return out_adj, in_adj


@pytest.fixture(scope="module")
def fig2_index():
    out_adj, in_adj = fig2_adjacency()
    return SequentialRlcIndex(out_adj, in_adj, k=2)


# ---- the paper's running example -----------------------------------------

def test_inout_order_matches_paper():
    out_adj, in_adj = fig2_adjacency()
    aid = inout_order(out_adj, in_adj)
    assert sorted(aid, key=aid.get) == [1, 3, 2, 4, 5, 6]
    assert aid[3] == 2  # "aid(v3) = 2" in §V-B


#: Table II verbatim (hub vertex, minimum repeat) per vertex.
TABLE_II_OUT = {
    1: {(1, ("l2",)), (1, ("l1",)), (1, ("l2", "l1"))},
    2: {(1, ("l2", "l1")), (1, ("l1",))},
    3: {(1, ("l2",)), (1, ("l2", "l1")), (1, ("l1",)), (3, ("l1", "l2"))},
    4: {(1, ("l1",)), (3, ("l1", "l2"))},
    5: {(1, ("l1",)), (3, ("l1", "l2"))},
    6: set(),
}
TABLE_II_IN = {
    1: set(),
    2: {(1, ("l1",)), (1, ("l2", "l1"))},
    3: {(1, ("l2",)), (1, ("l1", "l2"))},
    4: {(1, ("l2",))},
    5: {(1, ("l1", "l2")), (1, ("l1",)), (3, ("l1", "l2")), (2, ("l2",))},
    6: {(1, ("l2", "l1")), (3, ("l1",)), (3, ("l2", "l3")), (4, ("l3",))},
}


def test_table2_exact_reproduction(fig2_index):
    lo, li = fig2_index.entries()
    for v in range(1, 7):
        assert lo.get(v, set()) == TABLE_II_OUT[v], f"L_out(v{v})"
        assert li.get(v, set()) == TABLE_II_IN[v], f"L_in(v{v})"


def test_table2_entry_count(fig2_index):
    assert fig2_index.entry_count() == 26
    assert fig2_index.size_bytes() == 296


@pytest.mark.parametrize(
    "s,t,L,expected",
    [
        (3, 6, ("l2", "l1"), True),  # Example 3, Q1
        (1, 2, ("l2", "l1"), True),  # Example 3, Q2
        (1, 3, ("l1",), False),      # Example 3, Q3
        (1, 3, ("l2",), True),
        (1, 1, ("l1",), True),       # l1-cycle v1->v2->v5->v1
        (1, 1, ("l2",), True),
        (6, 1, ("l1",), False),      # v6 has no out-edges
        (4, 6, ("l3",), True),
        (3, 4, ("l2",), True),       # covered via Case 1 (hub v1)
        (3, 6, ["l2", "l1"], True),  # a list constraint answers as the tuple
        (1, 3, ["l1"], False),
        (99, 1, ("l1",), False),     # unknown source
        (1, 99, ("l1",), False),     # unknown target
    ],
)
def test_paper_example_queries(fig2_index, s, t, L, expected):
    assert fig2_index.query(s, t, L) is expected


def test_query_rejects_invalid_constraint(fig2_index):
    # Rejected on every call, not only the first: query() remembers only the
    # constraints it accepted.
    for _ in range(3):
        with pytest.raises(ValueError):
            fig2_index.query(1, 2, ("l1", "l1"))  # not a minimum repeat
        with pytest.raises(ValueError):
            fig2_index.query(1, 2, ["l1", "l1"])
        with pytest.raises(ValueError):
            fig2_index.query(1, 2, ("l1", "l2", "l3"))  # |L| > k
        with pytest.raises(ValueError):
            fig2_index.query(1, 2, ())
        assert fig2_index.query(1, 2, ("l2", "l1")) is True


def test_fig2_full_equivalence_with_closure(fig2_index):
    out_adj, _ = fig2_adjacency()
    closure = brute_force_closure(out_adj, 2)
    for s, t, L in query_universe(7, all_mrs(["l1", "l2", "l3"], 2)):
        if s == 0 or t == 0:
            continue
        assert fig2_index.query(s, t, L) == ((s, t, L) in closure)


def test_fig2_condensed(fig2_index):
    assert condensed_violations(fig2_index) == []


# ---- fuzzing vs brute force (Theorems 2 and 3) ----------------------------

@pytest.mark.parametrize("seed", range(25))
def test_sound_complete_on_random_graphs(seed):
    out_adj, in_adj, labels, k = seeded_graph(seed)
    idx = SequentialRlcIndex(out_adj, in_adj, k)
    closure = brute_force_closure(out_adj, k)
    n = len(out_adj)
    for s, t, L in query_universe(n, all_mrs(labels, k)):
        assert idx.query(s, t, L) == ((s, t, L) in closure), (s, t, L)


@pytest.mark.parametrize("seed", range(25))
def test_condensed_on_random_graphs(seed):
    out_adj, in_adj, _, k = seeded_graph(seed)
    idx = SequentialRlcIndex(out_adj, in_adj, k)
    assert condensed_violations(idx) == []


@pytest.mark.parametrize("seed", range(8))
def test_entries_are_sound(seed):
    # Every entry states a real constrained reachability (soundness of the
    # entry tables themselves, not just of query answers).
    out_adj, in_adj, _, k = seeded_graph(seed)
    idx = SequentialRlcIndex(out_adj, in_adj, k)
    closure = brute_force_closure(out_adj, k)
    lo, li = idx.entries()
    for v, es in lo.items():
        for hub, L in es:
            assert (v, hub, L) in closure
    for v, es in li.items():
        for hub, L in es:
            assert (hub, v, L) in closure


def test_from_entries_roundtrip(fig2_index):
    lo, li = fig2_index.entries()
    out_entries = [(v, h, m) for v, es in lo.items() for h, m in es]
    in_entries = [(v, h, m) for v, es in li.items() for h, m in es]
    clone = SequentialRlcIndex.from_entries(fig2_index.aid, 2, out_entries, in_entries)
    assert clone.entries() == (lo, li)
    assert (clone.entry_count(), clone.size_bytes()) == (26, 296)
    for s, t, L in query_universe(7, all_mrs(["l1", "l2", "l3"], 2)):
        if s and t:
            assert clone.query(s, t, L) == fig2_index.query(s, t, L)


def test_index_smaller_than_closure_on_fig2(fig2_index):
    out_adj, _ = fig2_adjacency()
    assert fig2_index.entry_count() < len(brute_force_closure(out_adj, 2))


@pytest.mark.parametrize("seed", [2, 7, 13])
def test_index_grows_with_k(seed):
    # Appendix C shape: index size rises (weakly) as k grows, since every
    # k-MR of length <= k is also a (k+1)-MR candidate set member.
    out_adj, in_adj, _, _ = seeded_graph(seed)
    sizes = [
        SequentialRlcIndex(out_adj, in_adj, k).entry_count() for k in (1, 2, 3)
    ]
    assert sizes[0] <= sizes[1] <= sizes[2]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kleene_star_reduction(fig2_index, k):
    # §III-B: (s, t, L*) reduces to s == t or (s, t, L+). Spot-check the
    # reduction on fig2: star is plus for distinct endpoints, true for s == t.
    def star(s, t, L):
        return s == t or fig2_index.query(s, t, L)

    assert star(1, 1, ("l3",)) is True      # empty path satisfies L*
    assert star(1, 3, ("l2",)) is True
    assert star(6, 2, ("l1",)) is False


# ---- bucketed Algorithm 1 vs the paper's merge join ------------------------

def test_merge_join_oracle_on_fig2(fig2_index):
    out_adj, in_adj = fig2_adjacency()
    assert MergeJoinIndex(out_adj, in_adj, k=2).entries() == fig2_index.entries()
    assert_matches_merge_join(fig2_index, query_universe(7, all_mrs(["l1", "l2", "l3"], 2)))


@pytest.mark.parametrize("seed", range(200))
def test_merge_join_oracle_on_random_graphs(seed):
    # Entry for entry against a build whose PR1 probes are merge joins, then
    # every query of the universe against the merge join over the entries.
    out_adj, in_adj, labels, k = seeded_graph(seed)
    idx = ProbeCountingIndex(out_adj, in_adj, k)
    assert MergeJoinIndex(out_adj, in_adj, k).entries() == idx.entries()
    assert Algorithm2Index(out_adj, in_adj, k).entries() == idx.entries()
    assert idx.probes - idx.pruned == idx.entry_count()
    assert_matches_merge_join(idx, query_universe(len(out_adj), all_mrs(labels, k)))


def test_pr1_probe_accounting_fig2():
    # Every PR1 probe is a public query() call; a probe either prunes the
    # entry or precedes its insert.
    idx = ProbeCountingIndex(*fig2_adjacency(), k=2)
    assert (idx.probes, idx.pruned, idx.entry_count()) == (34, 8, 26)


# ---- the pruned hop-graph search against Algorithm 2 ----------------------

def test_algorithm2_oracle_on_fig2(fig2_index):
    alg2 = Algorithm2Index(*fig2_adjacency(), k=2)
    assert alg2.entries() == fig2_index.entries()
    assert alg2.entry_count() == 26


def assert_stats_invariants(idx) -> None:
    st = idx.stats
    assert st.probes == st.pr1_pruned + st.recorded
    assert st.attempts == st.pr2_pruned + st.pr1_pruned + st.recorded
    # A PR3 cut-off is a pruned attempt that the kernel-BFS does not expand.
    assert 0 <= st.pr3_cut <= st.pr1_pruned + st.pr2_pruned
    assert st.recorded == idx.entry_count()
    assert st.table_s >= 0 and st.search_s >= 0


@pytest.mark.parametrize("seed", [pytest.param(None, id="fig2"), *range(10)])
def test_build_stats_invariants(seed):
    if seed is None:
        (out_adj, in_adj), k = fig2_adjacency(), 2
    else:
        out_adj, in_adj, _, k = seeded_graph(seed)
    idx = ProbeCountingIndex(out_adj, in_adj, k)
    assert_stats_invariants(idx)
    # Counted apart from the public query() calls they stand for.
    assert (idx.stats.probes, idx.stats.pr1_pruned) == (idx.probes, idx.pruned)
    # Every pruned attempt is cut: only recorded vertices expand.
    assert idx.stats.pr3_cut == idx.stats.pr1_pruned + idx.stats.pr2_pruned
    # The hop relation's (vertex, L, vertex) triples, both directions.
    assert idx.stats.table_states == sum(
        len(ys)
        for table in (path_table(out_adj, k), path_table(in_adj, k, backward=True))
        for row in table.values()
        for ys in row.values()
    )
    alg2 = Algorithm2Index(out_adj, in_adj, k)
    assert_stats_invariants(alg2)
    # Algorithm 2 re-probes completions the hop-graph search marks as seen,
    # and also probes deeper powers and the successors of pruned seeds.
    assert alg2.stats.probes >= idx.stats.probes
    if seed is None:
        st = idx.stats
        assert (st.probes, st.pr1_pruned, st.pr2_pruned, st.pr3_cut, st.recorded) == (
            34, 8, 22, 30, 26
        )
        assert alg2.stats.pr3_cut == 21


def expected_attempts(idx: SequentialRlcIndex, out_adj, in_adj) -> int:
    """Attempts of a search that starts each ``(root, L)`` BFS at
    ``table[root][L]`` and expands exactly the vertices it recorded: the
    union of the seeds and the hop successors of the recorded vertices."""
    k = idx.k
    total = 0
    for table, side in (
        (path_table(in_adj, k, backward=True), idx.l_out),
        (path_table(out_adj, k), idx.l_in),
    ):
        recorded_from: dict = {}
        for y, buckets in side.items():
            for L, hubs in buckets.items():
                for root in hubs:
                    recorded_from.setdefault((root, L), []).append(y)
        for root, row in table.items():
            for L, ys in row.items():
                reached = set(ys)
                for y in recorded_from.get((root, L), ()):
                    reached.update(table.get(y, {}).get(L, ()))
                total += len(reached)
    return total


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", range(12))
def test_pruned_vertices_never_expand(seed, k):
    # The search attempts the seeds and the hop successors of recorded
    # vertices, nothing else; so it never probes more than Algorithm 2, and
    # it records the same entries.
    out_adj, in_adj, _, _ = seeded_graph(seed)
    idx = SequentialRlcIndex(out_adj, in_adj, k)
    alg2 = Algorithm2Index(out_adj, in_adj, k)
    assert idx.entries() == alg2.entries()
    assert idx.stats.probes <= alg2.stats.probes
    assert idx.stats.attempts == expected_attempts(idx, out_adj, in_adj)


@pytest.mark.parametrize("seed", range(5))
def test_path_table_directions_mirror(seed):
    # table_in[x][seq] lists the y with y -seq-> x: the forward table turned around.
    out_adj, in_adj, _, k = seeded_graph(seed)
    fwd = {(x, seq, y) for x, row in path_table(out_adj, k).items() for seq, ys in row.items() for y in ys}
    bwd = {(y, seq, x) for x, row in path_table(in_adj, k, backward=True).items() for seq, ys in row.items() for y in ys}
    assert fwd == bwd
    assert all(1 <= len(seq) <= k for _, seq, _ in fwd)


#: Unusual but legal graphs: (vertices, edges, labels, self loops, k).
UNUSUAL = {
    "self_loops": (8, 8, ["a", "b"], 12, 3),
    "only_self_loops": (5, 0, ["a", "b"], 10, 2),
    "isolated": (14, 5, ["a", "b"], 1, 3),  # half the vertices have no edge
    "k1": (15, 40, ["a", "b", "c"], 3, 1),
    "hostile_labels_k1": (12, 36, HOSTILE_LABELS, 2, 1),
    "hostile_labels_k2": (10, 30, HOSTILE_LABELS, 2, 2),
    "hostile_labels_k3": (8, 24, HOSTILE_LABELS, 2, 3),
    "empty_label_only": (9, 18, [""], 2, 3),
}


def unusual_adjacency(case: str):
    n, m, labels, loops, k = UNUSUAL[case]
    return (*rand_adjacency(random.Random(case), n, m, labels, loops), k)


def columnar_cases():
    """``(out_adj, in_adj, k)`` per case: the seeded graphs, the unusual
    ones, and the empty graph at k = 1, 2, 3."""
    cases = {f"seed{seed}": (*seeded_graph(seed)[:2], seeded_graph(seed)[3]) for seed in range(10)}
    cases.update({case: unusual_adjacency(case) for case in UNUSUAL})
    cases.update({f"empty_k{k}": ({}, {}, k) for k in (1, 2, 3)})
    return cases


@pytest.mark.parametrize("case", columnar_cases())
def test_columnar_table_matches_reference(case):
    """The builder's columnar hop table equals the reference dict BFS,
    triple for triple and in both directions."""
    out_adj, in_adj, k = columnar_cases()[case]
    backward, forward = builder_tables(out_adj, in_adj, k)
    assert table_sets(backward) == table_sets(path_table(in_adj, k, backward=True))
    assert table_sets(forward) == table_sets(path_table(out_adj, k))
    n = sum(len(ys) for row in forward.values() for ys in row.values())
    assert SequentialRlcIndex(out_adj, in_adj, k).stats.table_states == 2 * n


def test_hop_table_keeps_exactly_primitive_sequences():
    """One vertex with a self loop per hostile label spells every sequence;
    the table keeps exactly the primitive ones of length 1..5 (9,330 in
    all)."""
    labels = HOSTILE_LABELS
    ones = np.zeros(len(labels), np.int64)
    hops = hop_table(ones, np.arange(len(labels)), ones, 1, labels, 5)
    seqs = [s for m in range(1, 6) for s in product(labels, repeat=m)]
    assert len(seqs) == 9330
    assert sorted(hops.seqs[s] for s in hops.sid.tolist()) == sorted(filter(is_primitive, seqs))


def test_hop_table_refuses_int64_overflow():
    """The packed ``(x, seq, z)`` key must fit in an int64; a vertex count
    that cannot is refused before any array is allocated for it."""
    one = np.zeros(1, np.int64)
    hop_table(one, one, one, 2**20, ["a", "b"], 3)  # 2^40 * 14 fits
    with pytest.raises(ValueError, match="overflows int64"):
        hop_table(one, one, one, 2**32, ["a", "b"], 2)
    with pytest.raises(ValueError, match="overflows int64"):
        hop_table(one, one, one, 2**20, ["a", "b", "c", "d"], 12)


@pytest.mark.parametrize("case", UNUSUAL)
def test_unusual_input_both_builders(case):
    """Both builders answer every query as the brute-force closure does, and
    record the same entries, on unusual but legal graphs."""
    labels = UNUSUAL[case][2]
    out_adj, in_adj, k = unusual_adjacency(case)
    fast = SequentialRlcIndex(out_adj, in_adj, k)
    alg2 = Algorithm2Index(out_adj, in_adj, k)
    assert fast.entries() == alg2.entries()
    assert condensed_violations(fast) == []
    closure = brute_force_closure(out_adj, k)
    for s, t, L in query_universe(len(out_adj), all_mrs(labels, k)):
        want = (s, t, L) in closure
        assert fast.query(s, t, L) is want, (s, t, L)
        assert alg2.query(s, t, L) is want, (s, t, L)


@settings(max_examples=200, deadline=None)
@given(hostile_graphs())
def test_builder_matches_algorithm2_and_closure(graph):
    """On random small graphs over hostile labels the builder records
    Algorithm 2's entries and answers every query as the brute-force
    closure does."""
    out_adj, in_adj, labels, k = graph
    idx = SequentialRlcIndex(out_adj, in_adj, k)
    assert idx.entries() == Algorithm2Index(out_adj, in_adj, k).entries()
    closure = brute_force_closure(out_adj, k)
    for s, t, L in query_universe(len(out_adj), all_mrs(labels, k)):
        assert idx.query(s, t, L) is ((s, t, L) in closure), (s, t, L)
