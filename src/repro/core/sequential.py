"""Faithful single-machine reference implementation of the RLC index.

This module mirrors the paper's Algorithm 1 (query) and Algorithm 2
(indexing via backward/forward kernel-based search with pruning rules
PR1/PR2/PR3). It is the repository's one RLC index builder: the Table II,
IV and V subject (the paper's implementation is single-threaded Java; this
is its Python twin), and the source of the entries that
:class:`repro.core.index.RlcIndex` answers batch queries from.

Entries are stored bucketed per vertex as ``{mr: {hub}}``, the hub-label
layout of pruned landmark labeling (Akiba, Iwata, Yoshida, SIGMOD 2013).
Algorithm 1 then becomes two set-membership tests (Case 2 of Definition 4)
and one set intersection (Case 1) on the ``L`` buckets of ``s`` and ``t``.
This gives the same answer as the paper's merge join over entry lists
sorted by ``(aid(hub), mr)``, because that join only ever reports a match
on entries whose ``mr`` equals ``L``, and ``aid`` is one-to-one on hubs.
Algorithm 2's PR1 probe is a call to the public :meth:`SequentialRlcIndex.query`.

Two ambiguities in the paper's pseudocode are resolved as follows (both are
forced by Theorem 3 / Lemma 5 — see DESIGN.md §3):

- Algorithm 2 line 34-35 (`if i=1 and insert(...) then continue`) is
  implemented as *continue on prune*: when a completed repeat's entry is
  pruned by PR1/PR2 the search does not expand past that vertex (that is
  PR3); when the entry is recorded the search continues. Stopping on a
  *successful* insert would strand vertices further along the path with no
  entry and no coverage.
- The kernel-BFS of kernel ``L`` is seeded with every vertex whose
  kernel-search sequence is an exact power of ``L`` (every sequence is an
  exact power of its MR, so this is "the frontier of kernel candidate
  ``MR(seq)``"), each marked visited in the completed state. Seeding only
  depth-``|L|`` vertices breaks completeness when a deeper exact-power vertex
  is PR3-pruned through one branch but extensible through another.

Also contains :func:`brute_force_closure` — an exponential-free reference for
the concise transitive closure ``S^k`` used as ground truth in tests, built on
the paper's §IV observation that ``u ~L+~> v`` iff ``(u, v)`` is in the
transitive closure of the exact-``L``-path hop relation.
"""
from __future__ import annotations

from collections import defaultdict, deque
from types import MappingProxyType
from typing import Iterable

from repro.core.labels import Seq, is_primitive, mr

Adjacency = dict[int, list[tuple[str, int]]]
#: Per-vertex entries bucketed by minimum repeat: ``{vertex: {mr: {hub}}}``.
Entries = dict[int, dict[Seq, set[int]]]

_NO_BUCKETS = MappingProxyType({})
_NO_HUBS: frozenset[int] = frozenset()


def inout_order(out_adj: Adjacency, in_adj: Adjacency) -> dict[int, int]:
    """IN-OUT access ids (§V-B): 1-based rank by ``(|out|+1)*(|in|+1)`` desc,
    ties by ascending vertex id."""
    vertices = sorted(set(out_adj) | set(in_adj))
    scored = sorted(
        vertices,
        key=lambda v: (-(len(out_adj.get(v, ())) + 1) * (len(in_adj.get(v, ())) + 1), v),
    )
    return {v: i + 1 for i, v in enumerate(scored)}


class SequentialRlcIndex:
    """The RLC index of Definition 4, built by the paper's Algorithm 2."""

    def __init__(self, out_adj: Adjacency, in_adj: Adjacency, k: int):
        self.k = k
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.aid = inout_order(out_adj, in_adj)
        self.l_out: Entries = {}
        self.l_in: Entries = {}
        # Constraints query() has accepted, so each is validated only once.
        self._accepted: set[Seq] = set()
        self._build()

    @classmethod
    def from_entries(
        cls,
        aid: dict[int, int],
        k: int,
        out_entries: list[tuple[int, int, Seq]],
        in_entries: list[tuple[int, int, Seq]],
    ) -> "SequentialRlcIndex":
        """Wrap already-built entries ``(vertex, hub, mr)`` (e.g. collected
        from the Spark tables of a :class:`repro.core.index.RlcIndex`) so
        Algorithm 1 runs on them without rebuilding."""
        self = object.__new__(cls)
        self.k = k
        self.out_adj = {}
        self.in_adj = {}
        self.aid = aid
        self.l_out = {}
        self.l_in = {}
        self._accepted = set()
        for d, es in ((self.l_out, out_entries), (self.l_in, in_entries)):
            for v, h, m in es:
                d.setdefault(v, {}).setdefault(m, set()).add(h)
        return self

    # -- Algorithm 1 -------------------------------------------------------
    def query(self, s: int, t: int, constraint: Iterable[str]) -> bool:
        """Evaluate the RLC query ``(s, t, constraint+)``; Algorithm 1.

        Raises ValueError unless ``constraint`` is a minimum repeat of length
        at most ``k``; an unknown ``s`` or ``t`` answers False.
        """
        L = tuple(constraint)
        if L not in self._accepted:
            if not is_primitive(L) or len(L) > self.k:
                raise ValueError(f"constraint must be a minimum repeat of length <= k={self.k}")
            self._accepted.add(L)
        out_s = self.l_out.get(s, _NO_BUCKETS).get(L, _NO_HUBS)
        in_t = self.l_in.get(t, _NO_BUCKETS).get(L, _NO_HUBS)
        # Case 2 of Definition 4: a direct entry; Case 1: a shared hub.
        return t in out_s or s in in_t or not out_s.isdisjoint(in_t)

    def entries(self) -> tuple[dict[int, set[tuple[int, Seq]]], dict[int, set[tuple[int, Seq]]]]:
        """Index contents as ``{vertex: {(hub, mr)}}`` for L_out and L_in."""
        return (
            {v: {(h, m) for m, hs in b.items() for h in hs} for v, b in self.l_out.items()},
            {v: {(h, m) for m, hs in b.items() for h in hs} for v, b in self.l_in.items()},
        )

    def entry_count(self) -> int:
        return sum(len(hs) for d in (self.l_out, self.l_in) for b in d.values() for hs in b.values())

    def size_bytes(self) -> int:
        """Storage estimate matching RlcIndex.size_bytes: 8-byte vertex id +
        the mr label bytes per entry (Table IV's IS column)."""
        return sum(
            len(hs) * (8 + len(",".join(m)))
            for d in (self.l_out, self.l_in)
            for b in d.values()
            for m, hs in b.items()
        )

    # -- Algorithm 2 -------------------------------------------------------
    def _build(self) -> None:
        order = sorted(self.aid, key=self.aid.get)
        for v in order:
            self._kbs(v, backward=True)
            self._kbs(v, backward=False)

    def _insert(self, visited: int, root: int, L: Seq, backward: bool) -> bool:
        """Paper's ``insert``: PR2 then PR1, else record. Returns True iff
        the entry was recorded (False means a pruning rule fired)."""
        if self.aid[root] > self.aid[visited]:  # PR2
            return False
        s, t = (visited, root) if backward else (root, visited)
        if self.query(s, t, L):  # PR1 (also dedups identical entries)
            return False
        # (root, L) into L_out(visited) for backward search, else L_in(visited)
        side = self.l_out if backward else self.l_in
        side.setdefault(visited, {}).setdefault(L, set()).add(root)
        return True

    def _kbs(self, root: int, backward: bool) -> None:
        """One kernel-based search from ``root`` (§V-B): kernel-search to
        depth ``k`` (all paths, no traversal pruning) then one kernel-BFS per
        kernel candidate with PR3."""
        adj = self.in_adj if backward else self.out_adj
        k = self.k
        # --- kernel-search: BFS over (vertex, seq), deduplicated ----------
        frontier: set[tuple[int, Seq]] = {(root, ())}
        seen: set[tuple[int, Seq]] = set(frontier)
        seeds: dict[Seq, set[int]] = defaultdict(set)
        for _depth in range(k):
            nxt: set[tuple[int, Seq]] = set()
            for x, seq in frontier:
                for lbl, y in adj.get(x, ()):
                    seq2 = (lbl,) + seq if backward else seq + (lbl,)
                    key = (y, seq2)
                    if key in seen:
                        continue
                    seen.add(key)
                    L = mr(seq2)
                    self._insert(y, root, L, backward)
                    # Every sequence is an exact power of its MR: y seeds the
                    # kernel-BFS of kernel candidate L.
                    seeds[L].add(y)
                    nxt.add(key)
            frontier = nxt
        # --- kernel-BFS per kernel candidate ------------------------------
        for L, vset in seeds.items():
            m = len(L)
            # state = 1-based index of the next label of L to consume
            # (consumed back-to-front for backward search, front-to-back
            # conceptually — the wrap order below realizes both).
            visited: set[tuple[int, int]] = {(y, m) for y in vset}
            queue: deque[tuple[int, int]] = deque(visited)
            while queue:
                x, j = queue.popleft()
                expect = L[j - 1] if backward else L[m - j]
                for lbl, y in adj.get(x, ()):
                    if lbl != expect:
                        continue
                    j2 = m if j == 1 else j - 1
                    if (y, j2) in visited:
                        continue
                    if j == 1 and not self._insert(y, root, L, backward):
                        continue  # PR3: pruned completion — skip y entirely
                    visited.add((y, j2))
                    queue.append((y, j2))


# ---------------------------------------------------------------------------
# Reference concise closure (ETC ground truth for tests)
# ---------------------------------------------------------------------------

def brute_force_closure(out_adj: Adjacency, k: int) -> set[tuple[int, int, Seq]]:
    """All ``(u, v, L)`` with ``u ~L+~> v`` and ``|L| <= k`` (``L`` primitive).

    §IV reduction: enumerate all exact label sequences of length <= k (BFS
    with (vertex, seq) dedup), keep the primitive ones as per-``L`` hop
    relations, then take each hop relation's transitive closure.
    """
    hops: dict[Seq, set[tuple[int, int]]] = defaultdict(set)
    for u in out_adj:
        frontier = {(u, ())}
        seen = set(frontier)
        for _ in range(k):
            nxt = set()
            for x, seq in frontier:
                for lbl, y in out_adj.get(x, ()):
                    key = (y, seq + (lbl,))
                    if key not in seen:
                        seen.add(key)
                        nxt.add(key)
            frontier = nxt
            for y, seq in nxt:
                if is_primitive(seq):
                    hops[seq].add((u, y))
    closure: set[tuple[int, int, Seq]] = set()
    for L, rel in hops.items():
        succ: dict[int, set[int]] = defaultdict(set)
        for a, b in rel:
            succ[a].add(b)
        for u in {a for a, _ in rel}:
            reach: set[int] = set()
            stack = list(succ[u])
            while stack:
                b = stack.pop()
                if b in reach:
                    continue
                reach.add(b)
                stack.extend(succ.get(b, ()))
            closure.update((u, v, L) for v in reach)
    return closure
