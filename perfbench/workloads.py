"""The benchmark's workloads: the RLC index (Table IV build, Table V
queries) and the ETC fixpoint (Table IV).

- ``query-wn`` (Table IV build, Table V): Algorithm 2 builds at k=3 on the
  WN analog, and a closed-loop stream of Algorithm 1 lookups (Q1 ``a+``,
  Q2 ``(a.b)+``, Q3 ``(a.b.c)+``, each class half true and half false,
  paper §VI-c) and of Q4 ``a+.b+`` through the hybrid ``rlc_eval``. No
  Spark after set-up, so it is the "no change" control for work on the ETC
  fixpoint.
- ``etc-ad`` (Table IV, ETC): ``concise_closure`` on the AD analog, k=2,
  then ``EtcIndex.query_batch`` and ``RlcIndex.query_batch`` checked against
  driver Algorithm 1. It bypasses the driver build, so it is the "no change"
  control for work on the build and its probes.

Every workload reports the same end-to-end metrics. ``build_s`` and
``index_entries`` are the Table IV indexing time and size of the workload's
own index: the RLC index on ``query-wn``, ETC on ``etc-ad``.
The lookup and Q4 streams run on every workload against its RLC index
(``etc-ad`` builds one, untimed, for its answer checks).

Each analog is scaled (``Workload.scale``) so that one run, with its
set-up, takes about a minute on a 4-core machine. The graph is the
registry analog (its own ``Analog.seed``) on every run; the workload seed
draws the queries and their closed-loop order. Re-seeding the graph as well
moved ``index_entries`` and ``build_s`` by 13-14% (quartile spread over
five seeds on the EP analog), more than a regression bound can absorb.
"""
from __future__ import annotations

import gc
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from functools import partial
from itertools import permutations

import pandas as pd

from repro.baselines.engines import rlc_eval
from repro.baselines.online import Nfa, nfa_bfs
from repro.core.closure import Budget, EtcIndex, concise_closure, mr_hops
from repro.core.index import ENTRY_SCHEMA, RlcIndex
from repro.core.labels import all_mrs, encode
from repro.core.querygen import generate_query_sets, queries_to_df
from repro.core.sequential import SequentialRlcIndex
from repro.graphs.generators import ANALOGS, fig2_graph

from probes import IterationBudget, ProbeCountingIndex
from spans import Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    analog: str  # key of ANALOGS
    scale: float  # Analog.scaled factor
    k: int
    index: str  # "rlc": SequentialRlcIndex build; "etc": concise_closure
    burst_s: float  # stream time per round (lookups, then Q4)


WORKLOADS = {
    w.name: w
    for w in [
        Workload("query-wn", "WN", 0.05, 3, "rlc", 0.6),
        Workload("etc-ad", "AD", 0.1, 2, "etc", 4.0),
    ]
}

#: True and false queries per lookup class (Q1..Qk) and for Q4.
LOOKUPS_PER_HALF = 500
Q4_PER_HALF = 500
#: Query sampling gives up after this many draws per wanted query, so a
#: class with few true queries yields a smaller (still seeded) set.
DRAWS_PER_QUERY = 50
#: Graph generation and adjacency are repeated this many times; setup_s
#: counts their median once.
SETUP_REPEATS = 3
#: Wall-clock cap on one concise_closure; exceeding it is a failed operation.
ETC_MAX_S = 150.0
#: Untraced runs repeat rounds while another fits in ``--seconds``, and run
#: at least this many.
MIN_ROUNDS = 2
#: Share of a round's stream time given to Q4; the lookups get the rest.
Q4_SHARE = 7 / 8


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def q4_queries(out_adj, in_adj, labels, per_pair: int, seed: int):
    """Q4 ``a+.b+`` queries ``(s, t, a, b, truth)``: for every ordered pair
    of distinct labels, up to ``per_pair`` true and ``per_pair`` false ones
    by ``nfa_bfs``.

    A Q4 query's cost is set mostly by how common ``a`` and ``b`` are, so
    the label pairs are fixed and only the endpoints are drawn; with pairs
    drawn at random the Q4 median moved by 2x from one seed to the next.
    ``s`` is drawn among vertices with an ``a``-labeled out-edge and ``t``
    among those with a ``b``-labeled in-edge: any other query is answered
    before the first index probe, and such queries were most of a uniform
    sample."""
    rng = random.Random(seed)
    starts = {a: sorted(v for v, nb in out_adj.items() if any(x == a for x, _ in nb)) for a in labels}
    ends = {b: sorted(v for v, nb in in_adj.items() if any(x == b for x, _ in nb)) for b in labels}
    queries = []
    for a, b in permutations(labels, 2):
        if not starts[a] or not ends[b]:
            continue
        trues, falses = [], []
        for _ in range(DRAWS_PER_QUERY * 2 * per_pair):
            if len(trues) >= per_pair and len(falses) >= per_pair:
                break
            s, t = rng.choice(starts[a]), rng.choice(ends[b])
            bucket = trues if nfa_bfs(out_adj, s, t, Nfa.concat_plus(a, b)) else falses
            if len(bucket) < per_pair:
                bucket.append((s, t, a, b, bucket is trues))
        queries += trues + falses
    return queries


class Run:
    """One run of one workload: set-up, the measured section and the checks.

    ``attempted``/``failed`` count operations (builds, lookups, Q4 queries,
    batch-query answers); a wrong answer or an exception is a failure.
    """

    def __init__(self, spark, workload: Workload, seed: int, seconds: float, tracer: Tracer):
        self.spark = spark
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}  # end-to-end
        self.layer: dict[str, float] = {}  # per-layer (traced run)

    # -- bookkeeping -------------------------------------------------------
    def outcome(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"[perfbench] wrong answer: {what}", file=sys.stderr)

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"[perfbench] {what} failed:", file=sys.stderr)
        traceback.print_exc()

    # -- set-up --------------------------------------------------------------
    def setup(self, spark_start_s: float) -> None:
        wl = self.workload
        tr = self.tracer
        with tr.span("setup.warmup") as warm:
            # Only etc-ad times Spark work; the traced run warms up on every
            # workload because the warm-up is what it reports as the Spark
            # layers of query-wn.
            if wl.index == "etc" or tr.enabled:
                self.warm_up()
        analog = ANALOGS[wl.analog].scaled(wl.scale)
        parts = []
        graph = None
        for _ in range(SETUP_REPEATS):
            if graph is not None:
                graph.unpersist()
            with tr.span("graph.gen") as gen:
                graph = analog.build(self.spark)
            with tr.span("graph.adjacency") as adj:
                out_adj, in_adj = graph.to_adjacency()
            parts.append((gen.seconds + adj.seconds, gen.seconds, adj.seconds))
        self.graph, self.out_adj, self.in_adj = graph, out_adj, in_adj
        with tr.span("querygen") as qg:
            self.lookups, self.q4 = self.make_queries(out_adj, in_adj)
        graph_s, gen_s, adj_s = sorted(parts)[len(parts) // 2]
        self.metrics["setup_s"] = spark_start_s + warm.seconds + graph_s + qg.seconds
        self.layer.update({
            "spark.start_s": spark_start_s,
            "graph.gen_s": gen_s,
            "graph.adjacency_s": adj_s,
            "querygen_s": qg.seconds,
            "warmup_s": warm.seconds,
        })

    def make_queries(self, out_adj, in_adj):
        """Seeded Q1..Qk lookups ``(class, s, t, L, truth)`` in one shuffled
        closed-loop order, and Q4 queries ``(s, t, a, b, truth)``."""
        k = self.workload.k
        labels = sorted({lbl for nb in out_adj.values() for lbl, _ in nb})
        lookups = []
        for m in range(1, min(k, 3) + 1):
            trues, falses = generate_query_sets(
                out_adj, in_adj, labels,
                n_true=LOOKUPS_PER_HALF, n_false=LOOKUPS_PER_HALF, mr_len=m, seed=self.seed,
                max_attempts=DRAWS_PER_QUERY * 2 * LOOKUPS_PER_HALF,
            )
            lookups += [(m - 1, s, t, L, True) for s, t, L in trues]
            lookups += [(m - 1, s, t, L, False) for s, t, L in falses]
        random.Random(self.seed).shuffle(lookups)
        per_pair = max(1, round(Q4_PER_HALF / (len(labels) * (len(labels) - 1))))
        q4 = q4_queries(out_adj, in_adj, labels, per_pair, self.seed)
        return lookups, q4

    def warm_up(self) -> None:
        """A closure on the Fig. 2 graph: it starts the Python UDF workers
        and compiles the join plans before ETC is timed. The RLC workloads
        also run both batch-query paths on it, every answer checked against
        driver Algorithm 1 (``etc-ad`` checks them on its own graph)."""
        g = fig2_graph(self.spark)
        closure = self.closure(g, 2)
        if closure is not None and self.workload.index == "rlc":
            out_adj, in_adj = g.to_adjacency()
            index = SequentialRlcIndex(out_adj, in_adj, 2)
            labels = sorted({lbl for nb in out_adj.values() for lbl, _ in nb})
            vertices = sorted(out_adj)
            queries = [(s, t, L) for s in vertices for t in vertices for L in all_mrs(labels, 2)]
            self.check_batch(closure, 2, index, queries)
        if closure is not None:
            closure.unpersist()
        g.unpersist()

    # -- the layers ------------------------------------------------------------
    def build_rlc(self, cls=SequentialRlcIndex):
        """One Algorithm 2 build: ``(index, seconds, entries)``, or Nones."""
        gc.collect()
        try:
            with self.tracer.span("seq.build") as sp:
                index = cls(self.out_adj, self.in_adj, self.workload.k)
        except Exception:
            self.error("RLC build")
            return None, None, None
        self.attempted += 1
        self.build_span = sp
        return index, sp.seconds, index.entry_count()

    def build_etc(self):
        """One untraced ETC build: ``(closure, seconds, rows)``, or Nones."""
        gc.collect()
        closure = self.closure(self.graph, self.workload.k, traced=False)
        if closure is None:
            return None, None, None
        return closure, self.etc_seconds, self.etc_rows

    def closure(self, graph, k: int, traced: bool | None = None):
        """``concise_closure`` under its budget. The traced variant also
        times ``mr_hops`` on its own and records one span per iteration;
        its statistics land in ``self.layer`` under ``etc.*``."""
        tr = self.tracer
        traced = tr.enabled if traced is None else traced
        hop_rows = 0
        if traced:
            with tr.span("etc.mr_hops") as hops:
                hop_rows = mr_hops(graph, k).count()
        budget = IterationBudget(max_seconds=ETC_MAX_S) if traced else Budget(max_seconds=ETC_MAX_S)
        try:
            with tr.span("etc.concise_closure") as sp:
                closure = concise_closure(graph, k, budget)
                end = time.perf_counter_ns()
                if traced:
                    marks = [budget.started_ns] + [ns for ns, _ in budget.checks] + [end]
                    for a, b in zip(marks, marks[1:]):
                        tr.add_span("etc.iteration", a, b)
            rows = closure.count()
        except Exception:  # BudgetExceeded included
            self.error("concise_closure")
            return None
        self.attempted += 1
        self.etc_seconds, self.etc_rows = sp.seconds, rows
        if traced:
            # The first interval also holds the hop table and its count, so
            # the per-iteration figures use the later ones (the last of which
            # is the final, empty iteration).
            iters = [(b - a) / 1e9 for a, b in zip(marks[1:], marks[2:])] or [(end - marks[0]) / 1e9]
            cum = [hop_rows] + [r for _, r in budget.checks]
            deltas = [b - a for a, b in zip(cum, cum[1:])] or [0]
            self.layer.update({
                "etc.hops_s": hops.seconds,
                "etc.iterations": len(budget.checks),
                "etc.iter_s_p50": statistics.median(iters),
                "etc.iter_s_max": max(iters),
                "etc.delta_rows_p50": statistics.median(deltas),
                "etc.rows": rows,
            })
        return closure

    def check_batch(self, closure, k: int, driver: SequentialRlcIndex, queries) -> None:
        """``RlcIndex.query_batch`` (over the driver index's entries) and
        ``EtcIndex.query_batch`` must both agree with driver Algorithm 1."""
        spark = self.spark
        expected = [driver.query(s, t, L) for s, t, L in queries]
        out_e, in_e = driver.entries()

        def entries_df(entries):
            rows = [(v, h, encode(m)) for v, es in entries.items() for h, m in es]
            return spark.createDataFrame(pd.DataFrame(rows, columns=["vertex", "hub", "mr"]), ENTRY_SCHEMA)

        rank = spark.createDataFrame(pd.DataFrame(list(driver.aid.items()), columns=["id", "aid"]))
        qdf = queries_to_df(spark, queries)
        indexes = {
            "index.query_batch": RlcIndex(k, entries_df(out_e), entries_df(in_e), rank),
            "etc.query_batch": EtcIndex(closure, k),
        }
        for name, index in indexes.items():
            try:
                with self.tracer.span(name) as sp:
                    got = dict(index.query_batch(qdf).collect())
            except Exception:
                self.error(name)
                continue
            self.layer[f"{name}_s"] = sp.seconds
            for qid, want in enumerate(expected):
                self.outcome(got.get(qid) == want, (name, queries[qid]))

    # -- closed-loop streams ---------------------------------------------------
    def stream(self, name: str, call, items, best: list, seconds: float) -> int:
        """One burst of a closed loop over ``items`` = ``[(args, truth)]``:
        each call starts when the previous answer is back. Whole passes run
        until ``seconds`` have passed (at least one). ``best[i]`` keeps item
        ``i``'s fastest latency (ns) over every burst; returns the passes."""
        clock = time.perf_counter_ns
        deadline = time.perf_counter() + seconds
        passes = 0
        with self.tracer.span(name) as sp:
            while passes == 0 or time.perf_counter() < deadline:
                for i, (args, truth) in enumerate(items):
                    start = clock()
                    try:
                        got = call(*args)
                    except Exception:
                        self.error(f"{name} {args}")
                        continue
                    took = clock() - start
                    if best[i] is None or took < best[i]:
                        best[i] = took
                    self.outcome(got == truth, (name, args))
                passes += 1
        self.stream_span = sp
        return passes

    def bursts(self, index, seconds: float) -> None:
        """One burst of Algorithm 1 lookups (Q1..Qk), then one of Q4 through
        ``rlc_eval``, together ``seconds`` long. A lookup pass takes
        milliseconds and a Q4 pass a good part of a second, so Q4 gets
        ``Q4_SHARE`` of the time, for enough passes per query. The traced run
        counts the Q4 burst's index probes."""
        traced = self.tracer.enabled
        self.stream("query.lookups", index.query, self.lookup_items, self.lookup_best, seconds * (1 - Q4_SHARE))
        if traced:
            index.reset_counters()
        call = partial(rlc_eval, index, self.out_adj)
        passes = self.stream("hybrid.q4", call, self.q4_items, self.q4_best, seconds * Q4_SHARE)
        if traced:
            sp = self.stream_span
            self.tracer.add_aggregate("hybrid.probe", index.probe_ns, index.probes, parent=sp.index)
            self.layer["hybrid.probes_per_query"] = index.probes / (passes * len(self.q4_items))
            self.layer["hybrid.probe_s"] = index.probe_ns / 1e9 / passes
            self.layer["hybrid.self_s"] = self.tracer.self_seconds(sp.index) / passes

    def report_streams(self) -> None:
        lookups = sorted(b for b in self.lookup_best if b is not None)
        q4 = sorted(b for b in self.q4_best if b is not None)
        self.metrics["lookup_p50_us"] = percentile(lookups, 0.5) / 1e3
        self.metrics["lookup_p99_us"] = percentile(lookups, 0.99) / 1e3
        self.metrics["hybrid_p50_us"] = percentile(q4, 0.5) / 1e3
        self.metrics["hybrid_p99_us"] = percentile(q4, 0.99) / 1e3
        if self.tracer.enabled:
            per_class = [
                sorted(b for b, (c, *_) in zip(self.lookup_best, self.lookups) if c == m and b is not None)
                for m in range(self.workload.k)
            ]
            self.layer["query.q1_p50_us"] = percentile(per_class[0], 0.5) / 1e3
            self.layer["query.q2_p50_us"] = percentile(per_class[1], 0.5) / 1e3
            self.layer["query.qk_p50_us"] = percentile(per_class[-1], 0.5) / 1e3

    # -- the measured section --------------------------------------------------
    def execute(self) -> None:
        """Rounds of: build the workload's index, then one burst of each
        stream, ``burst_s`` long. Another round starts while one as long as
        the last still ends within ``seconds`` of the first; there are at
        least ``MIN_ROUNDS``.

        Every timed metric is the fastest observation over the whole run:
        ``build_s`` the fastest build, each query its fastest latency. On a
        shared host the same work takes up to 1.8x longer for tens of seconds
        at a time, and interference only ever adds time; spreading each
        metric's samples over the run is what keeps it steady from run to
        run.

        ``etc-ad`` builds an RLC index once, untimed, for its streams and
        checks, and runs each round's bursts before its build. The traced
        run has one round, with one untraced and one traced build, for the
        tracing overhead."""
        wl = self.workload
        traced = self.tracer.enabled
        clock = time.perf_counter
        deadline = clock() + self.seconds
        self.lookup_items = [((s, t, L), truth) for _, s, t, L, truth in self.lookups]
        self.q4_items = [((s, t, ("concat_plus", a, b)), truth) for s, t, a, b, truth in self.q4]
        self.lookup_best = [None] * len(self.lookup_items)
        self.q4_best = [None] * len(self.q4_items)
        build = self.build_rlc if wl.index == "rlc" else self.build_etc
        times, sizes = [], set()
        driver = closure = None
        if wl.index == "etc":
            # The RLC index for etc-ad's streams and checks. Its bursts run
            # before each ETC build, while the JVM is idle: lookups timed
            # right after one moved by a third from run to run.
            driver = self.build_rlc()[0]
        rounds, round_s = 0, 0.0
        while rounds < (1 if traced else MIN_ROUNDS) or (not traced and clock() + round_s < deadline):
            rounds += 1
            round_start = clock()
            if wl.index == "etc" and driver is not None and not traced:
                self.bursts(driver, wl.burst_s)
            built, seconds, size = build()
            if built is None:
                continue
            times.append(seconds)
            sizes.add(size)
            if wl.index == "etc":
                if closure is not None:
                    closure.unpersist()
                closure = built
            else:
                driver = built
                if not traced:
                    self.bursts(driver, wl.burst_s)
            round_s = clock() - round_start
        if not times or driver is None:
            return
        self.metrics["build_s"] = min(times)
        self.metrics["index_entries"] = min(sizes)
        if len(sizes) > 1:
            self.outcome(False, f"builds disagree on index size: {sorted(sizes)}")
        if traced:
            if wl.index == "etc":
                closure.unpersist()
                closure = self.closure(self.graph, wl.k)
                self.layer["trace.overhead_s"] = self.etc_seconds - times[0]
                driver = self.traced_build(plain_s=None)
            else:
                del driver, built
                driver = self.traced_build(plain_s=times[0])
            if driver is None or (wl.index == "etc" and closure is None):
                return
            self.bursts(driver, wl.burst_s)
        self.report_streams()
        if wl.index == "etc":
            queries = [(s, t, L) for _, s, t, L, _ in self.lookups]
            self.check_batch(closure, wl.k, driver, queries)

    def traced_build(self, plain_s: float | None) -> ProbeCountingIndex | None:
        """Algorithm 2 with every PR1 probe counted and timed. ``plain_s`` is
        the same build untraced, for the tracing overhead."""
        tr = self.tracer
        index, _, entries = self.build_rlc(ProbeCountingIndex)
        if index is None:
            return None
        sp = self.build_span
        tr.add_aggregate("seq.pr1_probe", index.probe_ns, index.probes, parent=sp.index)
        self.layer.update({
            "seq.pr1_probes": index.probes,
            "seq.pr1_pruned": index.hits,
            "seq.pr1_probe_s": index.probe_ns / 1e9,
            "seq.search_self_s": tr.self_seconds(sp.index),
            "seq.recorded_per_probe": entries / max(1, index.probes),
            "seq.entries": entries,
        })
        if plain_s is not None:
            self.layer["trace.overhead_s"] = sp.seconds - plain_s
        return index
