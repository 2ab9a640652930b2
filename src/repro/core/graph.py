"""Edge-labeled directed graph substrate over Spark DataFrames (paper §III).

A graph ``G = (V, E, L)`` is an edge table ``(src: long, label: string,
dst: long)``; ``V`` is the set of endpoint ids. Edges are deduplicated on the
full triple (``E`` is a *set* of labeled edges). The table is repartitioned by
``label`` so label-constrained joins (the steps of Sys1's batch BFS in
:mod:`repro.baselines.online`) co-locate same-label edges.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.storagelevel import StorageLevel

EDGE_COLUMNS = ("src", "label", "dst")


class LabeledGraph:
    """Wrapper holding the deduplicated, cached edge DataFrame plus the
    derived vertex table (computed lazily, cached)."""

    def __init__(self, edges: DataFrame):
        missing = set(EDGE_COLUMNS) - set(edges.columns)
        if missing:
            raise ValueError(f"edge table missing columns: {sorted(missing)}")
        self.edges = (
            edges.select(
                F.col("src").cast("long"),
                F.col("label").cast("string"),
                F.col("dst").cast("long"),
            )
            .dropDuplicates(list(EDGE_COLUMNS))
            .repartition("label")
            .persist(StorageLevel.MEMORY_AND_DISK)
        )
        self._vertices: DataFrame | None = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls, spark: SparkSession, triples: list[tuple[int, str, int]]
    ) -> "LabeledGraph":
        """Build from driver-side ``(src, label, dst)`` triples (fixtures, tests)."""
        pdf = pd.DataFrame(triples, columns=list(EDGE_COLUMNS))
        return cls(spark.createDataFrame(pdf))

    @classmethod
    def from_pandas(cls, spark: SparkSession, pdf: pd.DataFrame) -> "LabeledGraph":
        return cls(spark.createDataFrame(pdf[list(EDGE_COLUMNS)]))

    # -- basic accessors ---------------------------------------------------
    def vertices(self) -> DataFrame:
        """Distinct vertex ids appearing as an endpoint, column ``id``."""
        if self._vertices is None:
            self._vertices = (
                self.edges.select(F.col("src").alias("id"))
                .union(self.edges.select(F.col("dst").alias("id")))
                .distinct()
                .persist(StorageLevel.MEMORY_AND_DISK)
            )
        return self._vertices

    def labels(self) -> list[str]:
        return [r[0] for r in self.edges.select("label").distinct().collect()]

    def num_vertices(self) -> int:
        return self.vertices().count()

    def num_edges(self) -> int:
        return self.edges.count()

    # -- driver-side views -------------------------------------------------
    def to_pandas_edges(self) -> pd.DataFrame:
        return self.edges.toPandas()

    def to_adjacency(self) -> tuple[dict[int, list[tuple[str, int]]], dict[int, list[tuple[str, int]]]]:
        """Driver adjacency: ``(out_adj, in_adj)`` with ``out_adj[v] = [(label, w)]``
        for the sequential reference algorithms and online-traversal baselines."""
        out_adj: dict[int, list[tuple[str, int]]] = {}
        in_adj: dict[int, list[tuple[str, int]]] = {}
        for r in self.edges.collect():
            out_adj.setdefault(r.src, []).append((r.label, r.dst))
            in_adj.setdefault(r.dst, []).append((r.label, r.src))
            out_adj.setdefault(r.dst, [])
            in_adj.setdefault(r.src, [])
        return out_adj, in_adj

    def unpersist(self) -> None:
        for df in (self.edges, self._vertices):
            if df is not None:
                df.unpersist()
