"""Benchmark for Table IV: indexing time and size, RLC vs ETC.

Default benchmark rows keep the suite fast (AD, EP, TW analogs; the full
Table IV row set runs via `jobs/table4_indexing.py`). Shapes asserted:
the RLC index is far smaller than ETC, and ETC exceeds its budget (the
paper's "-" behaviour) on the denser BA analog even with a generous cap.
"""
import pytest

from repro.core.closure import Budget, BudgetExceeded, EtcIndex, concise_closure
from repro.core.sequential import SequentialRlcIndex
from repro.graphs.generators import build_analog


@pytest.mark.parametrize("name", ["AD", "EP", "TW"])
def test_table4_rlc_sequential(benchmark, spark, name):
    g = build_analog(spark, name)
    out_adj, in_adj = g.to_adjacency()
    idx = benchmark.pedantic(
        lambda: SequentialRlcIndex(out_adj, in_adj, 2), rounds=1, iterations=1
    )
    assert idx.entry_count() > 0
    g.unpersist()


def test_table4_etc_ad(benchmark, spark):
    g = build_analog(spark, "AD")
    etc = benchmark.pedantic(
        lambda: EtcIndex(concise_closure(g, 2, budget=Budget(max_seconds=600)), 2),
        rounds=1,
        iterations=1,
    )
    # Shape check vs the paper: ETC holds far more entries than the RLC index.
    out_adj, in_adj = g.to_adjacency()
    rlc = SequentialRlcIndex(out_adj, in_adj, 2)
    assert etc.entry_count() > 10 * rlc.entry_count()
    g.unpersist()


def test_table4_etc_blows_budget_on_ep(benchmark, spark):
    # The paper reports "-" for ETC on every graph but AD; the EP analog's
    # closure exceeds a 4M-row budget (the AD analog's closure is ~1.5M).
    g = build_analog(spark, "EP")

    def attempt():
        try:
            concise_closure(g, 2, budget=Budget(max_seconds=300, max_rows=4_000_000))
            return False
        except BudgetExceeded:
            return True

    assert benchmark.pedantic(attempt, rounds=1, iterations=1)
    g.unpersist()

