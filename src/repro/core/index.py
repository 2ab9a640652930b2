"""The RLC index as Spark DataFrames + Algorithm 1 query evaluation.

The index of Definition 4 is two entry tables

- ``l_out(vertex, hub, mr)`` — ``(hub, MR) ∈ L_out(vertex)``: ``vertex ~MR+~> hub``
- ``l_in(vertex, hub, mr)``  — ``(hub, MR) ∈ L_in(vertex)``: ``hub ~MR+~> vertex``

with ``mr`` a :data:`repro.core.labels.SEP`-encoded minimum repeat. A batch
of RLC queries is answered with the equi-joins of Definition 4: Case 2 is a
join on the full triple, Case 1 joins ``L_out(src)`` and ``L_in(dst)`` on the
(hub, mr) pair — the distributed analogue of Algorithm 1's merge join.

The entries themselves come from the driver's Algorithm 2
(:class:`repro.core.sequential.SequentialRlcIndex`); an :class:`RlcIndex`
holds them as DataFrames so a whole query workload is answered by the joins
above instead of one driver lookup at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import LongType, StringType, StructField, StructType

from repro.core.labels import decode
from repro.core.sequential import SequentialRlcIndex

ENTRY_SCHEMA = StructType(
    [
        StructField("vertex", LongType()),
        StructField("hub", LongType()),
        StructField("mr", StringType()),
    ]
)


def covered_pairs(
    pairs: DataFrame,
    l_out: DataFrame,
    l_in: DataFrame,
    src_col: str = "src",
    dst_col: str = "dst",
    mr_col: str = "mr",
) -> DataFrame:
    """Rows of ``pairs`` whose RLC query ``(src, dst, mr+)`` is *true* under
    the index ``(l_out, l_in)`` — Definition 4's two cases as joins. All
    input columns are preserved (rows deduplicated)."""
    lo = l_out.select(
        F.col("vertex").alias("_ov"), F.col("hub").alias("_oh"), F.col("mr").alias("_om")
    )
    li = l_in.select(
        F.col("vertex").alias("_iv"), F.col("hub").alias("_ih"), F.col("mr").alias("_im")
    )
    s, d, m = F.col(src_col), F.col(dst_col), F.col(mr_col)
    case2a = pairs.join(
        lo, (s == F.col("_ov")) & (d == F.col("_oh")) & (m == F.col("_om")), "leftsemi"
    )
    case2b = pairs.join(
        li, (d == F.col("_iv")) & (s == F.col("_ih")) & (m == F.col("_im")), "leftsemi"
    )
    case1 = (
        pairs.join(lo, (s == F.col("_ov")) & (m == F.col("_om")))
        .join(
            li,
            (d == F.col("_iv")) & (F.col("_oh") == F.col("_ih")) & (m == F.col("_im")),
            "leftsemi",
        )
        .select(*pairs.columns)
    )
    return case2a.unionByName(case2b).unionByName(case1).distinct()


@dataclass
class RlcIndex:
    """A built RLC index: entry tables + the IN-OUT rank used to build it."""

    k: int
    l_out: DataFrame
    l_in: DataFrame
    rank: DataFrame  # (id, aid)

    def entry_count(self) -> int:
        return self.l_out.count() + self.l_in.count()

    def size_bytes(self) -> int:
        """Storage estimate: 8-byte vertex id + the mr label bytes per entry
        (mirrors the paper's in-memory entry layout, used for Table IV MB)."""
        est = F.sum(F.lit(8) + F.length("mr")).alias("b")
        a = self.l_out.agg(est).collect()[0][0] or 0
        b = self.l_in.agg(est).collect()[0][0] or 0
        return int(a + b)

    def query_batch(self, queries: DataFrame) -> DataFrame:
        """Answer a batch of queries ``(qid, src, dst, mr)`` → ``(qid, answer)``."""
        hit = covered_pairs(queries, self.l_out, self.l_in).select("qid").distinct()
        return queries.select("qid").join(
            hit.withColumn("answer", F.lit(True)), "qid", "left"
        ).fillna(False, subset=["answer"])

    def to_driver(self) -> SequentialRlcIndex:
        """Collect into a driver-side index that answers with the driver's
        Algorithm 1 (used for per-query latency benchmarks)."""
        aid = {r.id: r.aid for r in self.rank.collect()}
        out_entries = [(r.vertex, r.hub, decode(r.mr)) for r in self.l_out.collect()]
        in_entries = [(r.vertex, r.hub, decode(r.mr)) for r in self.l_in.collect()]
        return SequentialRlcIndex.from_entries(aid, self.k, out_entries, in_entries)
