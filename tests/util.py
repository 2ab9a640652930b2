"""Shared test helpers: random labeled graphs and index property checks."""
from __future__ import annotations

import importlib.util
import pathlib
import random
import uuid
from collections import defaultdict
from types import ModuleType
from typing import Callable, Iterable, TypeVar

from hypothesis import strategies as st
from pyspark.sql import SparkSession

from repro.core.closure import Budget
from repro.core.index import ENTRY_SCHEMA, RlcIndex
from repro.core.labels import Seq, encode, is_primitive
from repro.core.sequential import (
    Adjacency,
    SequentialRlcIndex,
    adjacency_hop_table,
    inout_order,
)

#: Labels that break string-joined MRs (",") or SQL quoting ("it's"), plus
#: non-ASCII and the empty label.
HOSTILE_LABELS = ["a", "b", ",", "it's", "é", ""]

#: A label containing the MR separator ``,``: ``("a,b",)`` and ``("a", "b")``
#: are different sequences, and no vertex reaches itself by a power of
#: either. Each query is listed with its answer.
COMMA_EDGES = [(0, "a,b", 1), (1, "a", 2), (2, "b", 0)]
COMMA_QUERIES = [
    ((0, 1, ("a,b",)), True),
    ((1, 0, ("a", "b")), True),
    ((0, 2, ("a,b",)), False),
]

T = TypeVar("T")

#: A hop table per vertex: ``{vertex: {L: [vertex, ...]}}``.
PathTable = dict[int, dict[Seq, list[int]]]


def load_file(path: pathlib.Path) -> ModuleType:
    """Import a script (a job or a benchmark) by path, outside any package."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def rand_adjacency(
    rng: random.Random, n: int, m: int, labels: list[str], loops: int = 0
) -> tuple[Adjacency, Adjacency]:
    """Random labeled digraph as (out_adj, in_adj); edges deduplicated."""
    out_adj: Adjacency = {v: [] for v in range(n)}
    in_adj: Adjacency = {v: [] for v in range(n)}
    seen: set[tuple[int, str, int]] = set()

    def add(s: int, lbl: str, t: int) -> None:
        if (s, lbl, t) not in seen:
            seen.add((s, lbl, t))
            out_adj[s].append((lbl, t))
            in_adj[t].append((lbl, s))

    for _ in range(m):
        add(rng.randrange(n), rng.choice(labels), rng.randrange(n))
    for _ in range(loops):
        v = rng.randrange(n)
        add(v, rng.choice(labels), v)
    return out_adj, in_adj


def adjacency_edges(out_adj: Adjacency) -> list[tuple[int, str, int]]:
    return [(s, lbl, t) for s, nb in out_adj.items() for lbl, t in nb]


def out_adjacency(edges: list[tuple[int, str, int]]) -> Adjacency:
    """The out-adjacency of an edge list, with every endpoint as a key."""
    out_adj: Adjacency = {}
    for s, lbl, t in edges:
        out_adj.setdefault(s, []).append((lbl, t))
        out_adj.setdefault(t, [])
    return out_adj


def edge_case_graphs() -> dict[str, tuple[list[tuple[int, str, int]], int]]:
    """Edge lists and k for the Spark fixpoints' corner cases."""
    rng = random.Random(11)
    labels = [lbl for lbl in HOSTILE_LABELS if "," not in lbl]
    hostile, _ = rand_adjacency(rng, 8, 20, labels, loops=3)
    return {
        "empty": ([], 2),
        "self_loops": ([(0, "a", 0), (0, "b", 0), (1, "a", 1), (2, "", 2)], 3),
        "one_edge": ([(0, "a", 1)], 2),
        "hostile_k2": (adjacency_edges(hostile), 2),
        "hostile_k3": (adjacency_edges(hostile), 3),
    }


def path_table(adj: Adjacency, k: int, backward: bool = False) -> PathTable:
    """Reference hop table (the builder's dict BFS before the columnar
    table): every vertex's exact paths of length 1..k that spell a primitive
    sequence, one BFS over ``(vertex, seq)`` per vertex. Over ``out_adj``,
    ``table[x][L]`` lists the ``y`` with a path ``x -> y`` spelling ``L``;
    with ``backward=True`` over ``in_adj`` it lists the ``y`` with a path
    ``y -> x`` spelling ``L`` (read in edge direction)."""
    primitive: dict[Seq, bool] = {}
    table: PathTable = {}
    for x in adj:
        row: dict[Seq, list[int]] = {}
        level: dict[Seq, set[int]] = {(): {x}}
        for _ in range(k):
            nxt: dict[Seq, set[int]] = defaultdict(set)
            for seq, zs in level.items():
                for z in zs:
                    for lbl, y in adj.get(z, ()):
                        nxt[(lbl,) + seq if backward else seq + (lbl,)].add(y)
            level = nxt
            for seq, ys in nxt.items():
                p = primitive.get(seq)
                if p is None:
                    p = primitive[seq] = is_primitive(seq)
                if p:
                    row[seq] = list(ys)
        table[x] = row
    return table


def table_sets(table: PathTable) -> dict[int, dict[Seq, set[int]]]:
    """``table`` with its lists as sets and its empty rows dropped."""
    return {x: {L: set(ys) for L, ys in row.items()} for x, row in table.items() if row}


def builder_tables(out_adj: Adjacency, in_adj: Adjacency, k: int) -> tuple[PathTable, PathTable]:
    """The RLC builder's columnar hop table, backward then forward, in the
    layout of :func:`path_table` (``backward=True``, then over ``out_adj``)."""
    aid = inout_order(out_adj, in_adj)
    verts = sorted(aid, key=aid.get)
    hops = adjacency_hop_table(out_adj, verts, k)
    tables = []
    for g in hops.groups():
        table: PathTable = {}
        for r, v in enumerate(verts):
            for i in range(g.first[r], g.first[r + 1]):
                ys = g.ys[g.start[i] : g.start[i + 1]]
                table.setdefault(v, {})[hops.seqs[g.sid[i]]] = [verts[y] for y in ys]
        tables.append(table)
    return tables[0], tables[1]


@st.composite
def hostile_graphs(draw):
    """A random graph of at most 12 vertices over a subset of
    ``HOSTILE_LABELS``, self loops allowed, and k in 1..3."""
    n = draw(st.integers(1, 12))
    labels = draw(st.lists(st.sampled_from(HOSTILE_LABELS), min_size=1, max_size=3, unique=True))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(labels), st.integers(0, n - 1)), max_size=30)
    )
    out_adj = {v: [] for v in range(n)}
    in_adj = {v: [] for v in range(n)}
    for s, lbl, t in set(edges):
        out_adj[s].append((lbl, t))
        in_adj[t].append((lbl, s))
    return out_adj, in_adj, labels, draw(st.integers(1, 3))


def brute_concat_plus(out_adj: Adjacency, s: int, t: int, a: str, b: str) -> bool:
    """Ground truth for a+ . b+ : v reachable from s via a-edges (>=1), t
    reachable from v via b-edges (>=1)."""
    def reach(frontier, lbl):
        seen = set()
        stack = list(frontier)
        while stack:
            v = stack.pop()
            for l, w in out_adj.get(v, ()):
                if l == lbl and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    mid = reach([s], a)
    return t in reach(mid, b)


class RecordingBudget(Budget):
    """A :class:`Budget` that records every ``check`` as
    ``(iteration, rows)``."""

    def start(self) -> "RecordingBudget":
        self.checks = []
        return super().start()

    def check(self, rows: int, iteration: int, what: str) -> None:
        self.checks.append((iteration, rows))
        super().check(rows, iteration, what)


def fixpoint_records(caplog, what: str) -> list[tuple[int, int, int, float]]:
    """The ``(iteration, delta_rows, total_rows, seconds)`` records that
    :func:`repro.core.closure.fixpoint` or
    :func:`repro.core.closure.concise_closure` logged for the loop ``what``."""
    return [
        r.args[1:]
        for r in caplog.records
        if r.name == "repro.core.closure" and r.args[0] == what
    ]


def spark_jobs(spark: SparkSession, fn: Callable[[], T]) -> tuple[T, int]:
    """``fn()`` and the number of Spark jobs it started, counted in a job
    group of its own."""
    sc = spark.sparkContext
    group = f"spark-jobs-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


def seeded_graph(seed: int) -> tuple[Adjacency, Adjacency, list[str], int]:
    """Deterministic random test graph family indexed by seed:
    returns (out_adj, in_adj, labels, k)."""
    rng = random.Random(seed)
    n = rng.randrange(5, 30)
    m = rng.randrange(n, 4 * n)
    labels = ["a", "b", "c"][: rng.randrange(1, 4)]
    k = rng.choice([1, 2, 3])
    loops = rng.randrange(0, 4)
    out_adj, in_adj = rand_adjacency(rng, n, m, labels, loops)
    return out_adj, in_adj, labels, k


def condensed_violations(idx: SequentialRlcIndex) -> list[tuple]:
    """Non-degenerate Definition 5 violations: an entry with a Case-1 cover
    that does not use the entry itself (see tests/test_sequential.py)."""
    lo, li = idx.entries()
    bad = []
    for s, es in lo.items():
        for t, L in es:
            for u, L2 in es:
                if L2 == L and u != t and (u, L) in li.get(t, set()):
                    bad.append(("out", s, t, L, u))
    for t, es in li.items():
        for s, L in es:
            for u, L2 in lo.get(s, set()):
                if L2 == L and u != s and (u, L) in es:
                    bad.append(("in", s, t, L, u))
    return bad


def rlc_index(spark: SparkSession, idx: SequentialRlcIndex) -> RlcIndex:
    """``idx``'s entries and access ids as the Spark tables of an
    :class:`RlcIndex`, so ``query_batch`` runs on driver-built entries."""
    lo, li = idx.entries()

    def table(entries: dict[int, set[tuple[int, Seq]]]):
        rows = [(v, h, encode(m)) for v, es in entries.items() for h, m in es]
        return spark.createDataFrame(rows, ENTRY_SCHEMA)

    rank = spark.createDataFrame(list(idx.aid.items()), "id long, aid int")
    return RlcIndex(k=idx.k, l_out=table(lo), l_in=table(li), rank=rank)


def query_universe(
    n: int, mrs: list[Seq]
) -> list[tuple[int, int, Seq]]:
    return [(s, t, L) for s in range(n) for t in range(n) for L in mrs]


# ---- the paper's Algorithm 1 as a merge join (test-only oracle) -----------

EntryList = list[tuple[int, Seq, int]]


def entry_list(aid: dict[int, int], entries: Iterable[tuple[int, Seq]]) -> EntryList:
    """One vertex's ``{(hub, mr)}`` entries as the paper lays them out: a
    list of ``(aid(hub), mr, hub)`` sorted by access id."""
    return sorted((aid[h], m, h) for h, m in entries)


def merge_join_query(
    aid: dict[int, int], out_s: EntryList, in_t: EntryList, s: int, t: int, L: Seq
) -> bool:
    """Algorithm 1 over sorted entry lists: Case 2 by lookup, Case 1 by a
    merge join on ``(aid, mr)`` that reports only matches with ``mr == L``."""
    if (aid.get(t), L, t) in out_s or (aid.get(s), L, s) in in_t:
        return True
    i = j = 0
    while i < len(out_s) and j < len(in_t):
        ki, kj = out_s[i][:2], in_t[j][:2]
        if ki == kj:
            if ki[1] == L:
                return True
            i += 1
            j += 1
        elif ki < kj:
            i += 1
        else:
            j += 1
    return False


class MergeJoinIndex(SequentialRlcIndex):
    """The builder whose PR1 probe (the public ``query``) is
    :func:`merge_join_query` over the entries recorded so far."""

    def query(self, s: int, t: int, constraint: Iterable[str]) -> bool:
        L = tuple(constraint)
        if not is_primitive(L) or len(L) > self.k:
            raise ValueError(f"constraint must be a minimum repeat of length <= k={self.k}")
        out_s = entry_list(self.aid, _vertex_entries(self.l_out, s))
        in_t = entry_list(self.aid, _vertex_entries(self.l_in, t))
        return merge_join_query(self.aid, out_s, in_t, s, t, L)


def _vertex_entries(side: dict, v: int) -> list[tuple[int, Seq]]:
    return [(h, m) for m, hubs in side.get(v, {}).items() for h in hubs]


def assert_matches_merge_join(
    idx: SequentialRlcIndex, queries: Iterable[tuple[int, int, Seq]]
) -> None:
    """``idx.query`` answers every query as :func:`merge_join_query` does
    over lists built from ``idx.entries()``."""
    lo, li = idx.entries()
    out_lists = {v: entry_list(idx.aid, es) for v, es in lo.items()}
    in_lists = {v: entry_list(idx.aid, es) for v, es in li.items()}
    for s, t, L in queries:
        want = merge_join_query(idx.aid, out_lists.get(s, []), in_lists.get(t, []), s, t, L)
        assert idx.query(s, t, L) is want, (s, t, L)


class ProbeCountingIndex(SequentialRlcIndex):
    """Counts calls to the public ``query``; during the build these are the
    PR1 probes, and a True answer is a PR1 prune."""

    def __init__(self, out_adj: Adjacency, in_adj: Adjacency, k: int):
        self.probes = self.pruned = 0
        super().__init__(out_adj, in_adj, k)

    def query(self, s: int, t: int, constraint: Iterable[str]) -> bool:
        hit = super().query(s, t, constraint)
        self.probes += 1
        self.pruned += hit
        return hit
