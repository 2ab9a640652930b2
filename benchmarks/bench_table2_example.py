"""Benchmark for Table II: building (with the paper's Algorithm 2) and
querying the Fig. 2 example index."""
import pytest

from repro.core.sequential import Algorithm2Index
from repro.experiments.table2 import PAPER_ENTRY_COUNT, fig2_adjacency


@pytest.fixture(scope="module")
def adjacency():
    return fig2_adjacency()


def test_table2_sequential_build(benchmark, adjacency):
    out_adj, in_adj = adjacency
    idx = benchmark(lambda: Algorithm2Index(out_adj, in_adj, 2))
    assert idx.entry_count() == PAPER_ENTRY_COUNT


def test_table2_query_latency(benchmark, adjacency):
    out_adj, in_adj = adjacency
    idx = Algorithm2Index(out_adj, in_adj, 2)
    # Example 3's Q1: answered via Case 1 of Definition 4 (a shared hub).
    assert benchmark(lambda: idx.query(3, 6, ("l2", "l1"))) is True
