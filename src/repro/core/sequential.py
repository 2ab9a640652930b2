"""The single-machine RLC index: the paper's Algorithm 1 (query) and
Algorithm 2 (indexing by backward/forward kernel-based search with pruning
rules PR1/PR2/PR3).

:class:`SequentialRlcIndex` is the repository's one RLC index builder: the
Table IV and V subject (the paper's implementation is single-threaded Java;
this is its Python twin), and the source of the entries that
:class:`repro.core.index.RlcIndex` answers batch queries from. Its search is
pruned landmark labeling of each minimum repeat's hop graph (Akiba, Iwata,
Yoshida, SIGMOD 2013; the reachability form is Yano et al., CIKM 2013):
``u ~L+~> v`` iff ``v`` is reachable from ``u`` in one or more hops of
``R_L``, the pairs joined by a path spelling exactly ``L`` (§IV). Once per
build, :func:`hop_table` enumerates ``R_L`` for every primitive ``L`` of
length at most ``k`` as columnar numpy arrays over vertices interned by
IN-OUT rank (so PR2 is an int compare), and :class:`HopGroups` lays it out
as CSR per direction. Per root in IN-OUT order and per ``L`` group in the
root's row, a BFS over ``R_L`` starts at that group, attempts each vertex it
reaches once (PR2, then the PR1 probe, else record) and expands only the
vertices it recorded. ETC's Spark closure starts from the same table
(``closure.mr_hops``). It records the same entries as
the paper's search, which :class:`Algorithm2Index` keeps verbatim as Table
II's artifact and the tests' oracle. The two searches differ only in how
often they probe. Algorithm 2 also seeds the kernel-BFS with the deeper
powers ``LL``, ``LLL``, … of the kernel-search, expands a seed even when it
is pruned, and probes a pruned completion again each time it reaches it.
None of that can record an entry. A vertex ``y`` that PR2 or PR1 prunes has
a higher-ranked hub on a ``root``–``y`` path in ``R_L``, so every vertex
past ``y`` is already covered through that hub, and PR1 prunes it too. PR2
is static and PR1 only grows the index, so a pruned vertex stays pruned.
Within one search the probe order cannot change an answer: a backward
search from ``root`` writes only ``(root, L)`` into ``L_out(y)``, while its
probe ``query(y, root, L)`` reads ``L_out(y)`` and ``L_in(root)`` (the
forward search is the mirror case). DESIGN.md §3 has the proof sketch. Each
build leaves its cost in ``stats`` (:class:`BuildStats`).

Entries are stored bucketed per vertex as ``{mr: {hub}}``, the hub-label
layout of pruned landmark labeling (Akiba, Iwata, Yoshida, SIGMOD 2013).
Algorithm 1 then becomes two set-membership tests (Case 2 of Definition 4)
and one set intersection (Case 1) on the ``L`` buckets of ``s`` and ``t``.
This gives the same answer as the paper's merge join over entry lists
sorted by ``(aid(hub), mr)``, because that join only ever reports a match
on entries whose ``mr`` equals ``L``, and ``aid`` is one-to-one on hubs.
Algorithm 2's PR1 probe is a call to the public :meth:`SequentialRlcIndex.query`.
The index also keeps its out- and in-neighbours grouped by label, so
:meth:`SequentialRlcIndex.concat_plus` answers the extended query ``a+ . b+``
(§VI-C) by a search from both ends: ``a``-edges forward from ``s``, each
visited vertex's ``(b,)`` bucket read against ``L_in(t)[(b,)]``, and
``b``-edges backward into ``t``, each visited vertex's ``(a,)`` bucket read
against ``L_out(s)[(a,)]``, expanding the side with the smaller stack. Both
sides look for the same witnesses ``w`` (``s ~a+~> w ~b+~> t``) and each
visits all of them before it runs out, so the first side to run out proves
the answer False.

Algorithm 2 line 34-35 (`if i=1 and insert(...) then continue`) is
ambiguous in the paper's pseudocode. Both builders implement it as *continue
on prune*: when a completed repeat's entry is pruned by PR1/PR2 the search
does not expand past that vertex (that is PR3); when the entry is recorded
the search continues. Stopping on a *successful* insert would strand
vertices further along the path with no entry and no coverage (forced by
Theorem 3 / Lemma 5, see DESIGN.md §3).

Also contains :func:`brute_force_closure` — an exponential-free reference for
the concise transitive closure ``S^k`` used as ground truth in tests, built on
the paper's §IV observation that ``u ~L+~> v`` iff ``(u, v)`` is in the
transitive closure of the exact-``L``-path hop relation. It shares no code
with the builders.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable

import numpy as np

from repro.core.labels import Seq, is_primitive, mr

Adjacency = dict[int, list[tuple[str, int]]]
#: Out- or in-neighbours grouped by label: ``{vertex: {label: [vertex, ...]}}``.
LabelAdjacency = dict[int, dict[str, list[int]]]
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


@dataclass(frozen=True)
class HopTable:
    """The primitive hop relation of length 1..k: row ``i`` says that some
    path ``x -> y`` spells ``seqs[sid]``, packed as ``key[i] = (x * width +
    sid) * n + y``. Vertices are the caller's dense ints ``0..n-1``; ``sid``
    numbers every label sequence of length 1..k over the interned labels,
    ``width`` of them."""

    key: np.ndarray
    seqs: dict[int, Seq]
    width: int
    n: int

    @property
    def x(self) -> np.ndarray:
        return self.key // (self.width * self.n)

    @property
    def sid(self) -> np.ndarray:
        return self.key // self.n % self.width

    @property
    def y(self) -> np.ndarray:
        return self.key % self.n

    def groups(self) -> tuple["HopGroups", "HopGroups"]:
        """The table as CSR grouped by ``(y, L)``, for the backward searches,
        and by ``(x, L)``, for the forward ones."""
        w, n = self.width, self.n
        return HopGroups(self.y * w + self.sid, self.x, w, n), HopGroups(self.key // n, self.y, w, n)


def hop_table(
    src: np.ndarray, label: np.ndarray, dst: np.ndarray, n: int, labels: list[str], k: int
) -> HopTable:
    """The hop relation ``R_L`` of every primitive ``L`` with ``|L| <= k``,
    columnar, for the edges ``src[i] -label[i]-> dst[i]`` over the dense
    vertices ``0..n-1`` (``label[i]`` indexes ``labels``).

    Level ``m`` holds the distinct ``(x, seq, z)`` with a path ``x -> z``
    spelling the length-``m`` ``seq``, its code in base ``|labels|``, packed
    into one int64. Level ``m + 1`` extends every row by the out-edges of
    ``z`` (a source-sorted edge CSR, expanded with ``np.repeat``) and is
    deduplicated by one sort. Each level keeps its primitive rows: a
    length-``m`` sequence is primitive iff it differs from its rotation by
    every proper divisor of ``m``. Raises ValueError when a packed key,
    below ``|V|^2 * sum(|labels|^m)``, cannot fit in an int64.
    """
    nl = len(labels)
    width = sum(nl**m for m in range(1, k + 1))
    if n * n * width > np.iinfo(np.int64).max:
        raise ValueError(f"hop table key overflows int64: |V|^2 * sum(|labels|^m) = {n * n * width}")
    if not len(src):
        return HopTable(np.zeros(0, np.int64), {}, width, n)
    src, label, dst = (np.asarray(a, np.int64) for a in (src, label, dst))
    order = np.argsort(src)
    indptr = np.searchsorted(src[order], np.arange(n + 1))
    # An out-edge's part of the next level's key: its label, then its head.
    tail = label[order] * n + dst[order]
    key = (src * nl + label) * n + dst
    packed, seqs = [], {}
    base = 0  # sid of the first sequence of length m
    for m in range(1, k + 1):
        c = nl**m
        if m > 1:
            key = _next_level(key, n, nl, indptr, tail)
        key.sort()
        key = key[_run_heads(key)]
        code = key // n % c
        # The primitivity test runs once per distinct sequence.
        seq = np.unique(code)
        primitive = np.ones(len(seq), bool)
        for d in range(1, m):
            if m % d == 0:
                lead, rest = np.divmod(seq, nl ** (m - d))  # first d labels, the rest
                primitive &= rest * nl**d + lead != seq
        seq = seq[primitive]
        for cp in seq.tolist():
            seqs[base + cp] = tuple(labels[cp // nl ** (m - 1 - i) % nl] for i in range(m))
        kept = key[np.isin(code, seq)]
        # (x * c + code) * n + y  ->  (x * width + base + code) * n + y
        packed.append(kept + (kept // (c * n) * (width - c) + base) * n)
        base += c
    return HopTable(np.concatenate(packed), seqs, width, n)


def _run_heads(key: np.ndarray) -> np.ndarray:
    """Mask of the first row of each run of equal values in the sorted ``key``."""
    head = np.ones(len(key), bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    return head


def _next_level(key: np.ndarray, n: int, nl: int, indptr: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Every level key ``(x, seq, z)`` extended by each out-edge of ``z``
    (the edges sorted by source, ``indptr`` their CSR offsets and ``tail``
    their label and head), unsorted and with duplicates."""
    prefix, z = np.divmod(key, n)
    lo = indptr[z]
    return csr_expand(prefix * (nl * n), lo, indptr[z + 1] - lo, tail)


def csr_expand(head: np.ndarray, lo: np.ndarray, deg: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """``head[i] + tail[j]`` for every row ``i`` and every ``j`` in its CSR
    run ``lo[i] : lo[i] + deg[i]``, row by row, with no Python loop."""
    edge = np.repeat(lo - np.cumsum(deg) + deg, deg)
    edge += np.arange(len(edge))
    nxt = np.repeat(head, deg)
    nxt += np.take(tail, edge, out=edge)
    return nxt


def adjacency_hop_table(out_adj: Adjacency, verts: list[int], k: int) -> HopTable:
    """:func:`hop_table` of an adjacency, vertex ``verts[i]`` interned as
    ``i`` and labels in sorted order."""
    ix = {v: i for i, v in enumerate(verts)}
    labels = sorted({lbl for nb in out_adj.values() for lbl, _ in nb})
    lx = {lbl: i for i, lbl in enumerate(labels)}
    edges = np.array(
        [(ix[v], lx[lbl], ix[w]) for v, nb in out_adj.items() for lbl, w in nb], np.int64
    ).reshape(-1, 3)
    return hop_table(edges[:, 0], edges[:, 1], edges[:, 2], len(verts), labels, k)


@dataclass(frozen=True)
class BuildStats:
    """What one build cost. Every insert attempt is pruned by PR2, or probes
    PR1 (a public :meth:`SequentialRlcIndex.query` call) and is then pruned
    or recorded: ``attempts = pr2_pruned + probes`` and ``probes =
    pr1_pruned + recorded``. ``pr3_cut`` counts the pruned attempts past
    which the search does not expand (PR3). :class:`SequentialRlcIndex`
    expands no pruned vertex, so there ``pr3_cut = pr1_pruned +
    pr2_pruned``; :class:`Algorithm2Index` counts its own, at most that."""

    attempts: int
    pr2_pruned: int
    probes: int
    pr1_pruned: int
    pr3_cut: int
    recorded: int
    table_states: int  # (vertex, L, vertex) hop-relation triples, both directions
    table_s: float  # path-table enumeration
    search_s: float  # the search, PR1 probes included


class SequentialRlcIndex:
    """The RLC index of Definition 4, built by pruned labeling of each hop
    graph ``R_L``.

    ``stats`` holds the :class:`BuildStats` of the build (None for an index
    wrapped by :meth:`from_entries`). ``out_by_label`` and ``in_by_label``
    hold the graph's out- and in-neighbours grouped by label, both from one
    pass over ``out_adj`` (None for an index wrapped by
    :meth:`from_entries`, which has no graph).
    """

    def __init__(self, out_adj: Adjacency, in_adj: Adjacency, k: int):
        self.k = k
        self.out_adj = out_adj
        self.in_adj = in_adj
        succ: LabelAdjacency = {}
        pred: LabelAdjacency = {}
        for v, nb in out_adj.items():
            by_label = succ[v] = {}
            for lbl, w in nb:
                by_label.setdefault(lbl, []).append(w)
                into = pred.get(w)
                if into is None:
                    into = pred[w] = {}
                into.setdefault(lbl, []).append(v)
        self.out_by_label: LabelAdjacency | None = succ
        self.in_by_label: LabelAdjacency | None = pred
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
        self.out_by_label = None
        self.in_by_label = None
        self.aid = aid
        self.l_out = {}
        self.l_in = {}
        self._accepted = set()
        self.stats = None
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

    # -- §VI-C: the extended query a+ . b+ -----------------------------------
    def concat_plus(self, s: int, t: int, a: str, b: str) -> bool:
        """Evaluate ``(s, t, a+ . b+)`` by a search from both ends.

        The forward side is a DFS from ``s`` along ``a``-edges that runs
        Algorithm 1 for ``(w, t, b+)`` at every vertex ``w`` it reaches; the
        backward side is a DFS into ``t`` along ``b``-edges that runs
        Algorithm 1 for ``(s, w, a+)``. A witness is a ``w`` with ``s ~a+~>
        w`` and ``w ~b+~> t``, and each side visits every such ``w`` before
        it runs out, so either side alone is complete: the query answers
        True when either side finds a witness and False when either side
        runs out. Each step expands the side with the smaller stack, ties
        going forward. The backward side is set up only once the forward
        stack holds two vertices, so a query the forward side settles
        within a chain of single successors never touches it.

        ``s`` itself counts only when an ``a``-cycle leads back to it, since
        ``a+`` needs a nonempty prefix; likewise the backward side visits
        ``t`` only along a ``b``-cycle.
        Raises ValueError on an index without a graph
        (:meth:`from_entries`); an unknown ``s`` or ``t`` answers False.
        """
        succ = self.out_by_label
        if succ is None:
            raise ValueError("a+ . b+ needs the graph; this index was wrapped from entries")
        B = (b,)
        l_out = self.l_out
        in_t = self.l_in.get(t, _NO_BUCKETS).get(B, _NO_HUBS)
        seen: set[int] = set()
        stack = [s]
        back: list[int] | None = None  # the backward stack, once set up
        while stack:
            if back is None or len(stack) <= len(back):
                for w in succ.get(stack.pop(), _NO_BUCKETS).get(a, ()):
                    if w in seen:
                        continue
                    seen.add(w)
                    # query(w, t, (b,)), with in_t fetched once per query.
                    out_w = l_out.get(w, _NO_BUCKETS).get(B, _NO_HUBS)
                    if w in in_t or t in out_w or not out_w.isdisjoint(in_t):
                        return True
                    stack.append(w)
                if back is None and len(stack) > 1:
                    pred, l_in, A = self.in_by_label, self.l_in, (a,)
                    out_s = l_out.get(s, _NO_BUCKETS).get(A, _NO_HUBS)
                    back, back_seen = [t], set()
            else:
                for w in pred.get(back.pop(), _NO_BUCKETS).get(b, ()):
                    if w in back_seen:
                        continue
                    back_seen.add(w)
                    # query(s, w, (a,)), with out_s fetched once per query.
                    in_w = l_in.get(w, _NO_BUCKETS).get(A, _NO_HUBS)
                    if w in out_s or s in in_w or not out_s.isdisjoint(in_w):
                        return True
                    back.append(w)
                if not back:
                    return False
        return False

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

    # -- index construction: pruned labeling of each hop graph -------------
    def _build(self) -> None:
        """Pruned landmark labeling of each hop graph ``R_L``, roots in IN-OUT
        order.

        Vertices are interned by IN-OUT rank, so PR2 is ``y < r``. From each
        root ``r`` and for each ``L`` group in its row of the hop table, a
        BFS over ``R_L`` starts at that group. Each vertex it reaches is
        attempted once: PR2, then the PR1 probe, else recorded. Only
        recorded vertices are expanded, through their own ``L`` group.
        """
        t0 = time.perf_counter()
        aid = self.aid
        verts = sorted(aid, key=aid.get)  # the vertex of rank index i
        hops = adjacency_hop_table(self.out_adj, verts, self.k)
        backward, forward = hops.groups()
        # A backward search from r walks the y -> r hops and records into
        # L_out; a forward one walks r -> y and records into L_in.
        dirs = ((backward, self.l_out, True), (forward, self.l_in, False))
        seqs, width, states = hops.seqs, hops.width, 2 * len(hops.key)
        del hops  # free the table: the search reads only the groups
        t1 = time.perf_counter()
        query = self.query  # PR1 is a call to the public API
        attempts = pr2 = pr1 = recorded = 0
        for r, root in enumerate(verts):
            for g, side, backward in dirs:
                start, ys, group = g.start, g.ys, g.group
                for i in range(g.first[r], g.first[r + 1]):
                    sid = g.sid[i]
                    L = seqs[sid]
                    # A list BFS queue: the loop reaches what it appends.
                    queue = ys[start[i] : start[i + 1]]
                    seen = set(queue)
                    for y in queue:
                        if y < r:  # PR2
                            pr2 += 1
                            continue
                        v = verts[y]
                        if query(v, root, L) if backward else query(root, v, L):
                            pr1 += 1  # PR1 (also dedups identical entries)
                            continue
                        side.setdefault(v, {}).setdefault(L, set()).add(root)
                        recorded += 1
                        # Only a recorded vertex expands; a pruned one is
                        # covered by a higher-ranked hub (PR3).
                        j = group.get(y * width + sid)
                        if j is not None:
                            for z in ys[start[j] : start[j + 1]]:
                                if z not in seen:
                                    seen.add(z)
                                    queue.append(z)
                    attempts += len(queue)
        t2 = time.perf_counter()
        self.stats = BuildStats(
            attempts=attempts,
            pr2_pruned=pr2,
            probes=attempts - pr2,
            pr1_pruned=pr1,
            pr3_cut=pr1 + pr2,
            recorded=recorded,
            table_states=states,
            table_s=t1 - t0,
            search_s=t2 - t1,
        )


def csr(group: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``y`` grouped by ``group`` as CSR: the distinct groups in ascending
    order, the offsets of their runs (one more than there are groups), and
    ``y`` in group order."""
    order = np.argsort(group)
    head = np.flatnonzero(_run_heads(group[order]))
    return group[order[head]], np.append(head, len(order)), y[order]


class HopGroups:
    """One direction of a :class:`HopTable` as CSR over the rows' ``group =
    v * width + sid``: group ``i`` is vertex ``v``'s ``ys[start[i]:start[i +
    1]]`` under sequence id ``sid[i]``, the groups of vertex ``r`` are
    ``first[r]:first[r + 1]``, and ``group`` maps ``v * width + sid`` to
    its group. Python lists, because the search reads them one at a time."""

    def __init__(self, group: np.ndarray, y: np.ndarray, width: int, n: int):
        keys, start, ys = csr(group, y)
        # One int object per vertex, shared by every row that names it.
        self.ys: list[int] = np.arange(n).astype(object)[ys].tolist()
        self.start: list[int] = start.tolist()
        self.sid: list[int] = (keys % width).tolist()
        self.first: list[int] = np.searchsorted(keys, np.arange(n + 1) * width).tolist()
        self.group: dict[int, int] = dict(zip(keys.tolist(), range(len(keys))))


class Algorithm2Index(SequentialRlcIndex):
    """The paper's Algorithm 2 verbatim: a kernel-search over ``(vertex,
    seq)`` states, then a kernel-BFS that walks each kernel's label state
    machine one edge at a time and re-probes a completion every time it is
    reached. Table II's artifact and the entry-for-entry oracle of
    :class:`SequentialRlcIndex`'s search; ``stats`` has no path table.

    The kernel-BFS of kernel ``L`` is seeded with every vertex whose
    kernel-search sequence is an exact power of ``L`` (every sequence is an
    exact power of its MR, so this is "the frontier of kernel candidate
    ``MR(seq)``"), each marked visited in the completed state and expanded
    whether or not its own entry was pruned. That is the reading of
    ``map.get(L).add(x)`` under which Theorem 3's proof goes through: seeding
    only depth-``|L|`` vertices breaks completeness when a deeper
    exact-power vertex is PR3-pruned through one branch but extensible
    through another. The hop-graph search needs neither rule (DESIGN.md §3).
    """

    def _build(self) -> None:
        t0 = time.perf_counter()
        self._tally = Counter()
        order = sorted(self.aid, key=self.aid.get)
        # MR of every search sequence seen in this build: at most |labels|^k
        # distinct keys, against one KMP pass per new (vertex, seq) state.
        mrs: dict[Seq, Seq] = {}
        for v in order:
            self._kbs(v, backward=True, mrs=mrs)
            self._kbs(v, backward=False, mrs=mrs)
        n = self._tally
        self.stats = BuildStats(
            attempts=n["attempt"],
            pr2_pruned=n["pr2"],
            probes=n["probe"],
            pr1_pruned=n["pr1"],
            pr3_cut=n["pr3"],
            recorded=n["recorded"],
            table_states=0,
            table_s=0.0,
            search_s=time.perf_counter() - t0,
        )

    def _insert(self, visited: int, root: int, L: Seq, backward: bool) -> bool:
        """Paper's ``insert``: PR2 then PR1, else record. Returns True iff
        the entry was recorded (False means a pruning rule fired)."""
        self._tally["attempt"] += 1
        if self.aid[root] > self.aid[visited]:  # PR2
            self._tally["pr2"] += 1
            return False
        s, t = (visited, root) if backward else (root, visited)
        self._tally["probe"] += 1
        if self.query(s, t, L):  # PR1 (also dedups identical entries)
            self._tally["pr1"] += 1
            return False
        # (root, L) into L_out(visited) for backward search, else L_in(visited)
        side = self.l_out if backward else self.l_in
        side.setdefault(visited, {}).setdefault(L, set()).add(root)
        self._tally["recorded"] += 1
        return True

    def _kbs(self, root: int, backward: bool, mrs: dict[Seq, Seq]) -> None:
        """One kernel-based search from ``root`` (§V-B): kernel-search to
        depth ``k`` (all paths, no traversal pruning) then one kernel-BFS per
        kernel candidate with PR3. ``mrs`` memoises :func:`mr` per build."""
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
                    L = mrs.get(seq2)
                    if L is None:
                        L = mrs[seq2] = mr(seq2)
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
                        self._tally["pr3"] += 1
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
