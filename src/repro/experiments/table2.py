"""Table II reproduction: the RLC index contents for the Fig. 2 graph (k=2).

The paper's Algorithm 2 (:class:`repro.core.sequential.Algorithm2Index`,
the kernel-BFS state machine verbatim) reproduces the paper's table
*verbatim* (26 entries). No Spark session is needed: the index is built on
the driver.
"""
from __future__ import annotations

from repro.core.labels import encode
from repro.core.sequential import Algorithm2Index
from repro.graphs.generators import FIG2_EDGES

#: Paper Table II entry count (sum over all L_in/L_out cells).
PAPER_ENTRY_COUNT = 26


def fig2_adjacency():
    out_adj: dict[int, list] = {v: [] for v in range(1, 7)}
    in_adj: dict[int, list] = {v: [] for v in range(1, 7)}
    for s, l, t in FIG2_EDGES:
        out_adj[s].append((l, t))
        in_adj[t].append((l, s))
    return out_adj, in_adj


def run() -> dict:
    out_adj, in_adj = fig2_adjacency()
    seq = Algorithm2Index(out_adj, in_adj, 2)
    lo, li = seq.entries()
    return {
        "sequential_entries": seq.entry_count(),
        "paper_entries": PAPER_ENTRY_COUNT,
        "l_out": {v: sorted((h, encode(m)) for h, m in lo.get(v, set())) for v in range(1, 7)},
        "l_in": {v: sorted((h, encode(m)) for h, m in li.get(v, set())) for v in range(1, 7)},
    }


def format_table(result: dict) -> str:
    lines = [
        "Table II — RLC index for the Fig. 2 graph (k = 2)",
        f"entries: measured(sequential)={result['sequential_entries']} "
        f"paper={result['paper_entries']}",
        f"{'v':>3} | {'L_in(v)':<55} | L_out(v)",
    ]
    for v in range(1, 7):
        li = ", ".join(f"(v{h},{m})" for h, m in result["l_in"][v]) or "-"
        lo = ", ".join(f"(v{h},{m})" for h, m in result["l_out"][v]) or "-"
        lines.append(f" v{v} | {li:<55} | {lo}")
    return "\n".join(lines)
