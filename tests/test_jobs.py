"""Smoke tests: each spark-submit job entrypoint runs end-to-end at tiny
scale (inside pytest the job's SparkSession.getOrCreate() reuses the session
fixture)."""
import pathlib

import pytest

from tests.util import load_file

JOBS = pathlib.Path(__file__).resolve().parent.parent / "jobs"


def load_job(name):
    return load_file(JOBS / f"{name}.py")


def test_table2_job():
    out = load_job("table2_example_index").main([])
    assert "Table II" in out and "26" in out


def test_table3_job(spark):
    out = load_job("table3_graph_stats").main(["--datasets", "AD", "--scale", "0.2"])
    assert "Table III" in out and "AD" in out


def test_table4_job(spark):
    out = load_job("table4_indexing").main(
        ["--datasets", "AD", "--scale", "0.15", "--etc-budget-rows", "10"]
    )
    assert "Table IV" in out


def test_table5_job(spark):
    """The job's argument wiring only, at the smallest inputs the harness
    accepts (no Sys1 Spark queries); test_experiments.test_table5_run_tiny
    checks the harness itself."""
    out = load_job("table5_engines").main(
        ["--dataset", "WN", "--scale", "0.001", "--k", "3", "--queries", "2",
         "--spark-engine-queries", "0", "--seed", "1"]
    )
    assert "Table V" in out and "Sys2" in out
    assert "(WN analog, scale=1/100*0.001, |V|=20," in out and "k=3)" in out
