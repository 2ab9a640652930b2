"""Tests for the NFA-guided online-traversal baselines (driver side)."""
import pytest

from repro.baselines.online import Nfa, bibfs, nfa_bfs
from repro.core.labels import all_mrs
from repro.core.sequential import brute_force_closure
from tests.util import brute_concat_plus, query_universe, seeded_graph


def test_kleene_plus_nfa_shape():
    nfa = Nfa.kleene_plus(("a", "b"))
    assert nfa.start == 0 and nfa.accept == frozenset({0})
    assert nfa.step(0, "a") == frozenset({1})
    assert nfa.step(1, "b") == frozenset({0})
    assert nfa.step(0, "b") == frozenset()


def test_concat_plus_nfa_accepts_a_plus_b_plus():
    nfa = Nfa.concat_plus("a", "b")

    def accepts(word):
        states = {nfa.start}
        for c in word:
            states = {q2 for q in states for q2 in nfa.step(q, c)}
        return bool(states & nfa.accept)

    assert accepts("ab") and accepts("aab") and accepts("abb") and accepts("aaabbb")
    assert not accepts("a") and not accepts("b") and not accepts("ba") and not accepts("aba")


def test_traversal_on_self_loop():
    out_adj = {0: [("a", 0)], 1: []}
    assert nfa_bfs(out_adj, 0, 0, Nfa.kleene_plus(("a",)))
    assert not nfa_bfs(out_adj, 0, 1, Nfa.kleene_plus(("a",)))


def test_zero_length_path_not_accepted():
    # (s, s, L+) needs an actual L+ cycle, not the empty path.
    out_adj = {0: [("a", 1)], 1: []}
    in_adj = {0: [], 1: [("a", 0)]}
    assert not nfa_bfs(out_adj, 0, 0, Nfa.kleene_plus(("a",)))
    assert not bibfs(out_adj, in_adj, 0, 0, ("a",))


def test_bibfs_self_loop():
    out_adj = {0: [("a", 0)]}
    in_adj = {0: [("a", 0)]}
    assert bibfs(out_adj, in_adj, 0, 0, ("a",))
    assert not bibfs(out_adj, in_adj, 0, 0, ("b",))


@pytest.mark.parametrize("seed", range(20))
def test_bfs_matches_closure(seed):
    out_adj, in_adj, labels, k = seeded_graph(seed)
    closure = brute_force_closure(out_adj, k)
    for s, t, L in query_universe(len(out_adj), all_mrs(labels, k)):
        want = (s, t, L) in closure
        assert nfa_bfs(out_adj, s, t, Nfa.kleene_plus(L)) == want, (s, t, L)


@pytest.mark.parametrize("seed", range(20))
def test_dfs_and_bibfs_match_bfs(seed):
    """BiBFS agrees with the product-state BFS on every query."""
    out_adj, in_adj, labels, k = seeded_graph(seed)
    for s, t, L in query_universe(len(out_adj), all_mrs(labels, k)):
        want = nfa_bfs(out_adj, s, t, Nfa.kleene_plus(L))
        assert bibfs(out_adj, in_adj, s, t, L) == want, (s, t, L)


@pytest.mark.parametrize("seed", range(10))
def test_concat_plus_traversal_matches_brute(seed):
    out_adj, _, labels, _ = seeded_graph(seed)
    if len(labels) < 2:
        pytest.skip("needs two labels")
    a, b = labels[0], labels[1]
    nfa = Nfa.concat_plus(a, b)
    for s in out_adj:
        for t in out_adj:
            want = brute_concat_plus(out_adj, s, t, a, b)
            assert nfa_bfs(out_adj, s, t, nfa) == want, (s, t)
