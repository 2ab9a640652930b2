"""spark-submit entrypoint: reproduce Table IV (indexing time/size, RLC vs ETC),
then print each RLC build's stats (insert attempts, PR1/PR2 prunes, PR3
cut-offs, hop-table size, per-phase seconds). Each analog's row and stats
line are printed as soon as it finishes, and the whole table at the end; a
"-" ETC cell names the budget it exceeded.

Usage:
  spark-submit jobs/table4_indexing.py [--datasets AD,EP,TW,WN,WS] [--k 2]
      [--scale F] [--etc-budget-seconds 120] [--etc-budget-rows 3000000]
"""
import argparse
import os
import sys

from pyspark.sql import SparkSession

from repro.experiments import table4


def main(argv=None) -> str:
    ap = argparse.ArgumentParser()
    ap.add_argument("--datasets", default=",".join(table4.DEFAULT_NAMES))
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--etc-budget-seconds", type=float, default=120.0)
    ap.add_argument("--etc-budget-rows", type=int, default=3_000_000)
    args = ap.parse_args(argv)
    spark = SparkSession.builder.appName("table4").getOrCreate()
    rows = []
    for row in table4.run(
        spark,
        names=args.datasets.split(","),
        k=args.k,
        scale=args.scale,
        etc_budget_seconds=args.etc_budget_seconds,
        etc_budget_rows=args.etc_budget_rows,
    ):
        rows.append(row)
        print(table4.table_line(row) + "\n" + table4.stats_line(row), flush=True)
    out = table4.format_table(rows) + "\n\n" + table4.format_stats(rows)
    print(out)
    return out


if __name__ == "__main__":
    main()
    sys.stdout.flush()
    # Skip normal JVM teardown: a budget-cancelled Spark task can
    # zombie the shutdown hook (observed with the ETC closure).
    os._exit(0)
