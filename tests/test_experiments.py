"""Smoke tests for the per-table experiment drivers (tiny scales)."""
import math
import time

import pytest

from repro.core.sequential import BuildStats
from repro.experiments import table2, table3, table4, table5


def test_table2_run():
    result = table2.run()
    assert result["sequential_entries"] == result["paper_entries"] == 26
    out = table2.format_table(result)
    assert "v1" in out and "(v3,l1,l2)" in out.replace("','", ",")


def test_table3_run_tiny(spark):
    rows = table3.run(spark, ["AD"], scale=0.2)
    (row,) = rows
    assert row["name"] == "AD"
    assert row["V"] > 0 and row["E"] > 0 and row["L"] <= 3
    assert row["paper"] == (6000, 51000, 3, 4000, 98000)
    assert "Table III" in table3.format_table(rows)


def test_table4_run_tiny(spark):
    rows = list(table4.run(
        spark, ["AD"], scale=0.15, etc_budget_seconds=300, etc_budget_rows=10_000_000
    ))
    (row,) = rows
    assert row["rlc_seq_entries"] > 0
    assert row["rlc_stats"].recorded == row["rlc_seq_entries"]
    assert row["etc_it"] is not None and row["etc_entries"] > row["rlc_seq_entries"]
    assert "Table IV" in table4.format_table(rows)
    assert f" {row['rlc_seq_entries']} " in table4.format_stats(rows)
    assert f" {row['rlc_stats'].pr3_cut} " in table4.format_stats(rows)


def test_table4_etc_budget_exhaustion(spark):
    rows = list(table4.run(spark, ["AD"], scale=0.15, etc_budget_rows=10))
    (row,) = rows
    assert row["etc_it"] is None and "exceeded 10 rows" in row["etc_fail"]
    assert "-" in table4.format_table(rows)
    assert table4.format_table(rows).endswith(row["etc_fail"])


def test_table4_names_the_exceeded_etc_budget():
    """Each "-" ETC cell ends its line with the budget it exceeded; a
    finished ETC cell leaves the reason column empty."""
    stats = BuildStats(10, 2, 8, 3, 5, 5, 40, 0.01, 0.02)
    base = {"V": 1, "E": 1, "paper": table4.PAPER_TABLE4["AD"], "rlc_stats": stats,
            "rlc_seq_it": 0.5, "rlc_seq_entries": 5, "rlc_seq_mb": 0.1}
    rows = [
        {**base, "name": "T", "etc_it": None, "etc_fail": "concise_closure(ETC): exceeded 120.0s"},
        {**base, "name": "R", "etc_it": None,
         "etc_fail": "concise_closure(ETC): exceeded 3000000 rows (3100000)"},
        {**base, "name": "OK", "etc_it": 2.0, "etc_mb": 1.5},
    ]
    lines = table4.format_table(rows).splitlines()
    assert lines[1].endswith("why ETC is -")
    assert lines[2].startswith("T ") and lines[2].endswith("exceeded 120.0s")
    assert lines[3].startswith("R ") and lines[3].endswith("exceeded 3000000 rows (3100000)")
    assert lines[4].startswith("OK ") and lines[4].endswith("| 2216.1/2798.7")
    assert table4.table_line(rows[0]) == lines[2]
    assert table4.stats_line(rows[0]) == table4.format_stats(rows).splitlines()[2]


def test_table5_run_tiny(spark):
    result = table5.run(
        spark, scale=0.06, k=3, n_queries=6, spark_engine_queries=1, seed=1
    )
    assert result["index_entries"] > 0
    assert result["disagreements"] == []
    for qtype in ("Q1", "Q2", "Q3", "Q4"):
        assert result["per_query"][("RLC", qtype)] > 0
        for eng in ("Sys1", "Sys2", "Virtuoso"):
            su, bep = result["su_bep"][(eng, qtype)]
            assert su > 0 and (bep > 0 or math.isinf(bep))
    assert "Table V" in table5.format_table(result)


def test_table5_median_time_takes_the_middle_pass():
    """A cell is the median pass, so one slow pass does not move it."""
    calls = []
    delays = iter([0.0, 0.0, 0.05, 0.0, 0.0, 0.0])  # pass 2's first query is slow

    def fn(q):
        calls.append(q)
        time.sleep(next(delays))
        return q % 2 == 0

    t, answers = table5._median_time(fn, [0, 1], passes=3)
    assert calls == [0, 1] * 3
    assert answers == [True, False]
    assert t < 0.01


def test_table5_format_bep_below_one():
    """A break-even point under one query prints as ``<1``, not ``0``."""
    bep = {"Q1": 0.4, "Q2": 1.6, "Q3": math.inf, "Q4": 250.0}
    result = {
        "dataset": "WN", "scale": 0.01, "V": 10, "E": 20, "k": 3,
        "index_build_s": 0.5, "index_entries": 7,
        "su_bep": {(e, q): (3.0, b) for e in ("Sys1", "Sys2", "Virtuoso")
                   for q, b in bep.items()},
        "per_query": {("RLC", "Q1"): 1e-5}, "disagreements": [],
    }
    sys1 = next(l for l in table5.format_table(result).splitlines() if l.startswith("Sys1"))
    cells = [c.split()[-1] for c in sys1.split(" | ")[1:5]]
    assert cells == ["<1", "2", "inf", "250"]
