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
    out = load_job("table5_engines").main(
        ["--scale", "0.06", "--queries", "6", "--spark-engine-queries", "1"]
    )
    assert "Table V" in out and "Sys2" in out
