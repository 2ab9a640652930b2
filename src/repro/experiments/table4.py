"""Table IV reproduction: indexing time (IT) and index size (IS), RLC vs ETC.

Two builders per graph analog:

- **RLC** — pruned labeling of each minimum repeat's hop graph
  (:class:`repro.core.sequential.SequentialRlcIndex`; the same entries as
  the paper's Algorithm 2, and single-threaded like the paper's own
  implementation, so it is the IT/IS subject). Its
  :class:`repro.core.sequential.BuildStats` (insert attempts, PR1/PR2
  prunes, PR3 cut-offs, hop-table size, per-phase time) are kept per row;
- **ETC** — the distributed concise transitive closure under a
  :class:`repro.core.closure.Budget`; "-" marks budget exhaustion, the
  analogue of the paper's 24-hour timeout (ETC finished only on AD there).
"""
from __future__ import annotations

import time
from typing import Iterator

from pyspark.sql import SparkSession

from repro.core.closure import Budget, BudgetExceeded, EtcIndex, concise_closure
from repro.core.sequential import SequentialRlcIndex
from repro.graphs.generators import ANALOGS

#: Paper Table IV: dataset -> (RLC IT s, RLC IS MB, ETC IT s, ETC IS MB);
#: None means the paper reports "-" (did not finish in 24h / out of memory).
PAPER_TABLE4 = {
    "AD": (0.7, 1.9, 2216.1, 2798.7),
    "EP": (22.6, 29.3, None, None),
    "TW": (8.1, 93.5, None, None),
    "WN": (33.1, 122.6, None, None),
    "WS": (53.5, 173.9, None, None),
    "WG": (101.3, 403.6, None, None),
    "WT": (812.9, 607.1, None, None),
    "WB": (167.1, 474.2, None, None),
    "WH": (3707.2, 1319.1, None, None),
    "PR": (3104.1, 1212.6, None, None),
    "SO": (57072.5, 844.2, None, None),
    "LJ": (18240.9, 6248.1, None, None),
    "WF": (51338.7, 6467.9, None, None),
}

DEFAULT_NAMES = ["AD", "EP", "TW", "WN", "WS"]


def run(
    spark: SparkSession,
    names: list[str] | None = None,
    k: int = 2,
    scale: float = 1.0,
    # Scaled analogue of the paper's ETC caps (24 hours / 120 GB heap; ETC
    # "runs out of memory" beyond AD there): 120 s wall-clock and 3M closure
    # rows (~2x the AD analog's closure) at our ~100x-smaller scale.
    etc_budget_seconds: float = 120.0,
    etc_budget_rows: int = 3_000_000,
) -> Iterator[dict]:
    """One Table IV row per analog, yielded as soon as it is built. A row
    whose ETC build exceeded its budget has ``etc_it`` None and the reason
    in ``etc_fail``."""
    names = names or DEFAULT_NAMES
    for name in names:
        spec = ANALOGS[name]
        if scale != 1.0:
            spec = spec.scaled(scale)
        g = spec.build(spark)
        out_adj, in_adj = g.to_adjacency()
        row: dict = {"name": name, "V": g.num_vertices(), "E": g.num_edges(),
                     "paper": PAPER_TABLE4[name]}

        t0 = time.monotonic()
        seq = SequentialRlcIndex(out_adj, in_adj, k)
        row["rlc_seq_it"] = time.monotonic() - t0
        row["rlc_seq_entries"] = seq.entry_count()
        row["rlc_seq_mb"] = seq.size_bytes() / 1e6
        row["rlc_stats"] = seq.stats

        t0 = time.monotonic()
        try:
            closure = concise_closure(
                g, k, budget=Budget(max_seconds=etc_budget_seconds, max_rows=etc_budget_rows)
            )
            etc = EtcIndex(closure, k)
            row["etc_it"] = time.monotonic() - t0
            row["etc_entries"] = etc.entry_count()
            row["etc_mb"] = etc.size_bytes() / 1e6
        except BudgetExceeded as e:
            row["etc_it"] = None
            row["etc_fail"] = str(e)
        g.unpersist()
        yield row


def format_table(rows: list[dict]) -> str:
    lines = [
        "Table IV — indexing time (IT) and index size (IS): RLC vs ETC",
        f"{'graph':<6} | {'RLC IT(s)':>10} {'RLC IS(MB)':>11} {'#entries':>9}"
        f" | {'ETC IT(s)':>10} {'ETC IS(MB)':>11}"
        f" | paper RLC {'IT':>8}/{'IS':>7} | paper ETC IT/IS | why ETC is -",
    ]
    lines.extend(table_line(r) for r in rows)
    return "\n".join(lines)


def table_line(r: dict) -> str:
    """One row of :func:`format_table`; a "-" ETC cell ends with the budget
    it exceeded (time or rows)."""
    p_rlc_it, p_rlc_is, p_etc_it, p_etc_is = r["paper"]
    etc_it = f"{r['etc_it']:.1f}" if r.get("etc_it") is not None else "-"
    etc_mb = f"{r['etc_mb']:.1f}" if r.get("etc_it") is not None else "-"
    p_etc = f"{p_etc_it}/{p_etc_is}" if p_etc_it is not None else "-/-"
    return (
        f"{r['name']:<6} | {r['rlc_seq_it']:>10.1f} {r['rlc_seq_mb']:>11.2f}"
        f" {r['rlc_seq_entries']:>9} | {etc_it:>10} {etc_mb:>11}"
        f" | {p_rlc_it:>14.1f}/{p_rlc_is:>7.1f} | {p_etc:<15}"
        + (f" | {r['etc_fail']}" if "etc_fail" in r else "")
    ).rstrip()


def format_stats(rows: list[dict]) -> str:
    """The RLC builds' :class:`~repro.core.sequential.BuildStats`."""
    lines = [
        "RLC build stats — insert attempts, PR2/PR1 prunes, PR3 cut-offs,"
        " recorded entries, hop-table size and per-phase seconds",
        f"{'graph':<6} | {'attempts':>10} {'PR2':>10} {'probes':>10} {'PR1':>10}"
        f" {'PR3 cut':>10} {'recorded':>9} | {'table':>9} {'table s':>8} {'search s':>9}",
    ]
    lines.extend(stats_line(r) for r in rows)
    return "\n".join(lines)


def stats_line(r: dict) -> str:
    """One row of :func:`format_stats`."""
    st = r["rlc_stats"]
    return (
        f"{r['name']:<6} | {st.attempts:>10} {st.pr2_pruned:>10} {st.probes:>10}"
        f" {st.pr1_pruned:>10} {st.pr3_cut:>10} {st.recorded:>9} | {st.table_states:>9}"
        f" {st.table_s:>8.2f} {st.search_s:>9.2f}"
    )
