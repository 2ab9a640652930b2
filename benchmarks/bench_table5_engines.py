"""Benchmark for Table V: per-query latency of the RLC index vs engine
stand-ins on the (scaled) WN analog with k=3.

One benchmark per (engine, query-type) cell; `jobs/table5_engines.py`
computes the full SU/BEP table from the same machinery. Shape asserted:
the index lookup is orders of magnitude faster than every engine.
"""
import pytest

from repro.baselines.engines import (
    DuckDbEngine,
    PythonTraversalEngine,
    SparkSqlEngine,
    rlc_eval,
)
from repro.core.querygen import generate_query_sets
from repro.core.sequential import SequentialRlcIndex
from repro.graphs.generators import ANALOGS


@pytest.fixture(scope="module")
def setting(spark):
    g = ANALOGS["WN"].scaled(0.25).build(spark)
    out_adj, in_adj = g.to_adjacency()
    labels = sorted({l for nb in out_adj.values() for l, _ in nb})
    index = SequentialRlcIndex(out_adj, in_adj, 3)
    queries = {}
    for qtype, mr_len in (("Q1", 1), ("Q2", 2), ("Q3", 3)):
        trues, falses = generate_query_sets(
            out_adj, in_adj, labels, n_true=2, n_false=2, mr_len=mr_len, seed=1,
            max_attempts=4000,
        )
        qs = trues + falses
        queries[qtype] = qs[0] if qs else None
    yield g, out_adj, index, queries
    g.unpersist()


QTYPES = ["Q1", "Q2", "Q3"]


@pytest.mark.parametrize("qtype", QTYPES)
def test_rlc_index_lookup(benchmark, setting, qtype):
    _, out_adj, index, queries = setting
    s, t, L = queries[qtype]
    benchmark(lambda: rlc_eval(index, out_adj, s, t, ("plus", L)))


@pytest.mark.parametrize("qtype", QTYPES)
def test_sys2_python_traversal(benchmark, setting, qtype):
    _, out_adj, index, queries = setting
    eng = PythonTraversalEngine(out_adj)
    s, t, L = queries[qtype]
    want = rlc_eval(index, out_adj, s, t, ("plus", L))
    got = benchmark.pedantic(lambda: eng.evaluate(s, t, ("plus", L)), rounds=3, iterations=1)
    assert got == want


@pytest.mark.parametrize("qtype", QTYPES)
def test_virtuoso_duckdb(benchmark, setting, qtype):
    g, out_adj, index, queries = setting
    eng = DuckDbEngine(g.to_pandas_edges())
    s, t, L = queries[qtype]
    want = rlc_eval(index, out_adj, s, t, ("plus", L))
    got = benchmark.pedantic(lambda: eng.evaluate(s, t, ("plus", L)), rounds=3, iterations=1)
    eng.close()
    assert got == want


def test_sys1_spark_sql(benchmark, setting):
    g, out_adj, index, queries = setting
    eng = SparkSqlEngine(g)
    s, t, L = queries["Q2"]
    want = rlc_eval(index, out_adj, s, t, ("plus", L))
    got = benchmark.pedantic(lambda: eng.evaluate(s, t, ("plus", L)), rounds=1, iterations=1)
    assert got == want


def test_q4_hybrid_vs_python(benchmark, setting):
    _, out_adj, index, _ = setting
    labels = sorted({l for nb in out_adj.values() for l, _ in nb})
    a, b = labels[0], labels[1]
    # s has an a-out-edge and t a b-in-edge, so neither side is trivially empty.
    s = min(v for v, nb in out_adj.items() if any(l == a for l, _ in nb))
    t = max(w for nb in out_adj.values() for l, w in nb if l == b)
    spec = ("concat_plus", a, b)
    got = benchmark(lambda: rlc_eval(index, out_adj, s, t, spec))
    assert got == PythonTraversalEngine(out_adj).evaluate(s, t, spec)
