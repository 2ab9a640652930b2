"""Table V reproduction: speed-ups (SU) and break-even points (BEP) of the
RLC index over graph-engine stand-ins on the WN graph, k=3.

Queries (paper §VI-C): Q1 ``a+``, Q2 ``(a.b)+``, Q3 ``(a.b.c)+`` — all pure
index lookups with one k=3 index — and the extended query Q4 ``a+.b+``
evaluated with the paper's hybrid strategy (online traversal + index probes).

Engines (architecture-class stand-ins, DESIGN.md §4): Sys1 = Spark SQL
iterative joins per query, Sys2 = interpreted single-threaded traversal,
Virtuoso = DuckDB recursive CTEs. ``SU = engine_time / rlc_time`` per query;
``BEP = index_build_time / (engine_time - rlc_time)`` is the number of
queries after which building the index pays off. Each time per query is the
median of :data:`PASSES` timed passes over the query set (Sys1: one pass).
"""
from __future__ import annotations

import math
import random
import statistics
import time
from typing import Callable

from pyspark.sql import SparkSession

from repro.baselines.engines import (
    DuckDbEngine,
    PythonTraversalEngine,
    SparkSqlEngine,
    rlc_eval,
)
from repro.baselines.online import Nfa, nfa_bfs
from repro.core.querygen import generate_query_sets
from repro.core.sequential import SequentialRlcIndex
from repro.graphs.generators import ANALOGS

#: Paper Table V: system -> {qtype: (SU, BEP)}; None = timed out ("-").
PAPER_TABLE5 = {
    "Sys1": {"Q1": (1200, 84100), "Q2": (10400, 34000), "Q3": (18400, 9400), "Q4": (34000, 300)},
    "Sys2": {"Q1": (3000, 34900), "Q2": (202000, 1700), "Q3": (1300000, 130), "Q4": (104000, 98)},
    "Virtuoso": {"Q1": (597, 180000), "Q2": (4900, 71700), "Q3": (38100000, 5), "Q4": (None, None)},
}


def _gen_q4(out_adj, in_adj, labels, n_true, n_false, seed):
    rng = random.Random(seed)
    vertices = sorted(out_adj.keys() | in_adj.keys())
    trues, falses = [], []
    attempts = 0
    while (len(trues) < n_true or len(falses) < n_false) and attempts < 400 * (n_true + n_false):
        attempts += 1
        s, t = rng.choice(vertices), rng.choice(vertices)
        a, b = rng.sample(sorted(set(labels)), 2)
        if nfa_bfs(out_adj, s, t, Nfa.concat_plus(a, b)):
            if len(trues) < n_true:
                trues.append((s, t, a, b))
        elif len(falses) < n_false:
            falses.append((s, t, a, b))
    return trues + falses


#: Timed passes over a query set per in-process cell; Sys1 gets one, since
#: each of its queries runs Spark jobs for seconds.
PASSES = 3


class CountingAdjacency(dict):
    """A label-grouped adjacency that counts its ``get`` calls. Swapped into
    an index's ``out_by_label`` or ``in_by_label``, it counts the vertices
    that side of :meth:`SequentialRlcIndex.concat_plus` expands."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def q4_expansions(index: SequentialRlcIndex, specs: list[tuple]) -> list[tuple[int, int]]:
    """``(forward, backward)`` expansions of each Q4 query ``(s, t,
    ("concat_plus", a, b))``, counted in one untimed pass with
    :class:`CountingAdjacency` swapped into ``index``."""
    succ, pred = index.out_by_label, index.in_by_label
    fwd, bwd = index.out_by_label, index.in_by_label = CountingAdjacency(succ), CountingAdjacency(pred)
    counts = []
    try:
        for s, t, (_, a, b) in specs:
            f0, b0 = fwd.gets, bwd.gets
            index.concat_plus(s, t, a, b)
            counts.append((fwd.gets - f0, bwd.gets - b0))
    finally:
        index.out_by_label, index.in_by_label = succ, pred
    return counts


def _p50_p99(values: list[int]) -> tuple[int, int]:
    """Nearest-rank median and 99th percentile."""
    v = sorted(values)
    return v[len(v) // 2], v[min(len(v) - 1, int(0.99 * len(v)))]


def _median_time(
    fn: Callable[[tuple], bool], specs: list[tuple], passes: int
) -> tuple[float, list[bool]]:
    """Seconds per query, the median over ``passes`` timed passes of the mean
    over ``specs``, and the last pass's answers in query order."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        answers = [fn(sp) for sp in specs]
        times.append((time.perf_counter() - t0) / max(1, len(specs)))
    return statistics.median(times), answers


def run(
    spark: SparkSession,
    dataset: str = "WN",
    scale: float = 0.25,
    k: int = 3,
    n_queries: int = 40,
    spark_engine_queries: int = 3,
    seed: int = 0,
) -> dict:
    spec = ANALOGS[dataset].scaled(scale) if scale != 1.0 else ANALOGS[dataset]
    g = spec.build(spark)
    out_adj, in_adj = g.to_adjacency()
    labels = sorted({l for nb in out_adj.values() for l, _ in nb})

    t0 = time.monotonic()
    index = SequentialRlcIndex(out_adj, in_adj, k)
    index_it = time.monotonic() - t0

    half = n_queries // 2
    workloads: dict[str, list[tuple]] = {}
    for qtype, mr_len in (("Q1", 1), ("Q2", 2), ("Q3", 3)):
        trues, falses = generate_query_sets(
            out_adj, in_adj, labels, n_true=half, n_false=half, mr_len=mr_len, seed=seed
        )
        workloads[qtype] = [(s, t, ("plus", L)) for s, t, L in trues + falses]
    workloads["Q4"] = [
        (s, t, ("concat_plus", a, b)) for s, t, a, b in _gen_q4(out_adj, in_adj, labels, half, half, seed)
    ]

    engines = {
        "Sys1": SparkSqlEngine(g),
        "Sys2": PythonTraversalEngine(out_adj),
        "Virtuoso": DuckDbEngine(g.to_pandas_edges()),
    }
    result = {
        "dataset": dataset,
        "scale": spec.scale,
        "V": g.num_vertices(),
        "E": g.num_edges(),
        "k": k,
        "index_build_s": index_it,
        "index_entries": index.entry_count(),
        "per_query": {},  # (engine, qtype) -> seconds
        "su_bep": {},     # (engine, qtype) -> (SU, BEP)
        "disagreements": [],  # (engine, qtype, query) answered unlike RLC
    }
    for qtype, qs in workloads.items():
        rlc_t, want = _median_time(lambda q: rlc_eval(index, out_adj, q[0], q[1], q[2]), qs, PASSES)
        result["per_query"][("RLC", qtype)] = rlc_t
        for name, eng in engines.items():
            sub, passes = (qs[:spark_engine_queries], 1) if name == "Sys1" else (qs, PASSES)
            eng_t, got = _median_time(lambda q: eng.evaluate(q[0], q[1], q[2]), sub, passes)
            result["disagreements"] += [
                (name, qtype, q) for q, a, w in zip(sub, got, want) if a != w
            ]
            result["per_query"][(name, qtype)] = eng_t
            su = eng_t / rlc_t if rlc_t > 0 else math.inf
            bep = index_it / (eng_t - rlc_t) if eng_t > rlc_t else math.inf
            result["su_bep"][(name, qtype)] = (su, bep)
    expansions = q4_expansions(index, workloads["Q4"])
    if expansions:
        result["q4_expansions"] = {  # side -> (p50, p99) vertices expanded per query
            side: _p50_p99([e[i] for e in expansions]) for i, side in enumerate(("forward", "backward"))
        }
    engines["Virtuoso"].close()
    g.unpersist()
    return result


def format_table(result: dict) -> str:
    lines = [
        f"Table V — SU and BEP of the RLC index over engine stand-ins "
        f"({result['dataset']} analog, scale={result['scale']}, |V|={result['V']}, "
        f"|E|={result['E']}, k={result['k']})",
        f"index build: {result['index_build_s']:.1f}s, {result['index_entries']} entries",
        f"{'system':<10} | " + " | ".join(f"{q}: {'SU':>9} {'BEP':>8}" for q in ("Q1", "Q2", "Q3", "Q4"))
        + " | paper SU (Q1..Q4)",
    ]
    for name in ("Sys1", "Sys2", "Virtuoso"):
        cells = []
        for q in ("Q1", "Q2", "Q3", "Q4"):
            su, bep = result["su_bep"][(name, q)]
            bep_s = "inf" if math.isinf(bep) else "<1" if bep < 1 else f"{bep:.0f}"
            cells.append(f"{q}: {su:>9.0f}x {bep_s:>8}")
        paper = ", ".join(
            (f"{PAPER_TABLE5[name][q][0]}x" if PAPER_TABLE5[name][q][0] else "-")
            for q in ("Q1", "Q2", "Q3", "Q4")
        )
        lines.append(f"{name:<10} | " + " | ".join(cells) + f" | {paper}")
    lines.append(
        f"answers: {len(result['disagreements'])} engine answers differ from the RLC index"
    )
    if "q4_expansions" in result:
        (f50, f99), (b50, b99) = result["q4_expansions"]["forward"], result["q4_expansions"]["backward"]
        lines.append(
            f"Q4 hybrid, vertices expanded per query (p50 / p99): forward {f50} / {f99}, "
            f"backward {b50} / {b99}"
        )
    lines.append(
        f"per-query times (s, median of {PASSES} passes; Sys1 one pass): "
        + "; ".join(
            f"{e}/{q}={t:.2e}" for (e, q), t in sorted(result["per_query"].items())
        )
    )
    return "\n".join(lines)
