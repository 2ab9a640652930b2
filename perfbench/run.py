"""Benchmark command: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload query-wn --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that reports the per-layer metrics and writes its spans to
``.perfbench/traces/``. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
any answer was wrong or any operation failed. ``--workload all`` runs every
workload in turn, each in its own process, and prints a table of all of
them.

Load: one closed-loop client in one process; Spark runs ``local[n]`` with
``n = min(4, cores)`` and the session settings of the test suite (64 shuffle
partitions, broadcast joins off, Arrow on).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "build_s": "s", "index_entries": "count",
    "lookup_p50_us": "us", "lookup_p99_us": "us", "hybrid_p50_us": "us", "hybrid_p99_us": "us",
    "spark.start_s": "s", "graph.gen_s": "s", "graph.adjacency_s": "s", "querygen_s": "s",
    "warmup_s": "s", "seq.pr1_probes": "count", "seq.pr1_pruned": "count",
    "seq.pr1_probe_s": "s", "seq.search_self_s": "s", "seq.recorded_per_probe": "ratio",
    "seq.entries": "count", "query.q1_p50_us": "us", "query.q2_p50_us": "us",
    "query.qk_p50_us": "us", "hybrid.probes_per_query": "count", "hybrid.probe_s": "s",
    "hybrid.self_s": "s", "etc.hops_s": "s", "etc.iterations": "count",
    "etc.iter_s_p50": "s", "etc.iter_s_max": "s", "etc.delta_rows_p50": "count",
    "etc.rows": "count", "index.query_batch_s": "s", "etc.query_batch_s": "s",
    "trace.overhead_s": "s",
}


def configure_environment() -> None:
    """Point imports at this checkout's ``src`` and keep every file Spark
    and Python write inside the checkout. Must run before pyspark starts."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no system under test at {src}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    # The Spark Python workers import repro too (closure UDFs).
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    tmp = WORK / "tmp"
    local = WORK / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # Every JVM (Spark's launcher and driver): temp files here, and no
    # hsperfdata file under /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={shlex.quote(str(tmp))}"
    cores = min(4, len(os.sched_getaffinity(0)))
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _process_tree(root: int) -> list[int]:
    """``root``'s descendants (Linux ``/proc``), so they can be awaited."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    out, stack = [], [root]
    while stack:
        for c in children.get(stack.pop(), []):
            out.append(c)
            stack.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def stop_spark(spark) -> None:
    """Stop Spark, end its JVM (and the Python workers it started) and wait
    until every one of those processes is gone."""
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    spark.stop()
    if proc is None:
        return
    tree = _process_tree(proc.pid)
    proc.stdin.close()  # the gateway exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 30
    while any(_alive(p) for p in tree):
        if time.monotonic() > deadline:
            for p in tree:
                if _alive(p):
                    os.kill(p, 9)
            break
        time.sleep(0.05)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from spans import Tracer
    from workloads import WORKLOADS, Run

    run_id = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id, trace)
    t0 = time.perf_counter()
    spark = start_spark()
    spark_start_s = time.perf_counter() - t0
    run = Run(spark, WORKLOADS[workload], seed, seconds, tracer)
    try:
        run.setup(spark_start_s)
        run.execute()
    except Exception:
        run.error("run")
    finally:
        stop_spark(spark)
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        tracer.write(WORK / "traces" / f"{run_id}.json")
    names = run.layer if trace else run.metrics
    wanted = [n for n in UNITS if n in names]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": names[n], "unit": UNITS[n]} for n in wanted},
    }
    for n in wanted:
        print(f"[perfbench] {workload} {n} = {names[n]} {UNITS[n]}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args, names) -> int:
    """Every workload in its own child process, then a table of the results."""
    status, results = 0, {}
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        if proc.returncode != 0 or not results[name] or not results[name]["correct"]:
            status = 1
    for name, res in results.items():
        if res is None:
            print(f"{name:<10} no result")
            continue
        print(f"{name:<10} correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"{'':<10} {metric:<24} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results), flush=True)
    return status


def main() -> int:
    configure_environment()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
