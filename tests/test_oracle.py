"""Tests of the DuckDB oracle itself, over the Fig. 2 edge table: it must
accept an equal Spark result, whatever its column order, and reject one
that lost a row or changed a value."""
import pyspark.sql.functions as F
import pytest

from repro.graphs.generators import fig2_graph
from repro.oracle import assert_equivalent

COUNT_SQL = "SELECT label, COUNT(*) AS n FROM edges GROUP BY label"


@pytest.fixture(scope="module")
def edges(spark):
    return fig2_graph(spark).edges


@pytest.fixture(scope="module")
def label_counts(edges):
    return edges.groupBy("label").agg(F.count("*").alias("n"))


def test_grouped_count_oracle(edges, label_counts):
    assert {r.label: r.n for r in label_counts.collect()} == {"l1": 6, "l2": 4, "l3": 1}
    assert_equivalent(label_counts, COUNT_SQL, edges=edges)


def test_join_oracle(edges):
    # Two-edge paths counted per label pair: a self-join on dst = src.
    a, b = edges.alias("a"), edges.alias("b")
    got = (
        a.join(b, F.col("a.dst") == F.col("b.src"))
        .groupBy(F.col("a.label").alias("first"), F.col("b.label").alias("second"))
        .agg(F.count("*").alias("n"))
    )
    sql = """
    SELECT a.label AS first, b.label AS second, COUNT(*) AS n
    FROM edges a JOIN edges b ON a.dst = b.src
    GROUP BY a.label, b.label
    """
    assert_equivalent(got, sql, edges=edges)


def test_oracle_ignores_column_order(edges, label_counts):
    assert_equivalent(label_counts.select("n", "label"), COUNT_SQL, edges=edges)


def test_oracle_rejects_dropped_row(edges, label_counts):
    with pytest.raises(AssertionError):
        assert_equivalent(label_counts.where(F.col("label") != "l3"), COUNT_SQL, edges=edges)


def test_oracle_rejects_changed_count(edges, label_counts):
    bumped = label_counts.withColumn(
        "n", F.when(F.col("label") == "l1", F.col("n") + 1).otherwise(F.col("n"))
    )
    with pytest.raises(AssertionError):
        assert_equivalent(bumped, COUNT_SQL, edges=edges)
