"""Flow-level trace analysis: turn an event stream into a diagnosis.

The tracer records *what happened*; this module answers *which flows
hurt*.  It consumes trace events — either a JSONL file written by a
tracer sink or a live :class:`~repro.obs.trace.Tracer` ring — and folds
them into one deterministic report:

- **per-flow distributions** of chain depth (LTM tables hit per packet)
  and probe counts, with the pathological tail called out by name:
  the deepest chains and flows whose fast-path memo keeps getting
  invalidated;
- a **flame-style rollup** of event counts by ``cache → table → event``,
  the "where does the tracing volume come from" view;
- **per-table probe/hit shares** for the LTM pipeline, and a
  **reordering suggestion**: when a late table resolves a larger share
  of the pipeline's hits than an earlier one, placing its segment
  earlier would shorten the average chain walk (the pipeline-aware
  placement lever of the paper's §6 discussion).

Every list in the report is sorted with explicit tie-breaks (count
desc, then flow id / table index asc) so identical traces produce
byte-identical reports — ``repro trace`` output is golden-testable.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = [
    "analyze_events",
    "analyze_jsonl",
    "analyze_tracer",
    "load_jsonl",
    "render_text",
]

#: Events that carry a per-packet lookup outcome (one per packet).
OUTCOME_EVENTS = frozenset(
    ("lookup_hit", "lookup_miss", "fastpath_replay")
)


def load_jsonl(path: str) -> Iterator[dict]:
    """Yield one event dict per non-blank line of a JSONL trace file."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def _percentile(sorted_values: List, fraction: float):
    """Nearest-rank percentile of an ascending list (None when empty)."""
    if not sorted_values:
        return None
    rank = int(fraction * (len(sorted_values) - 1))
    return sorted_values[rank]


def _distribution(counter: Counter) -> dict:
    """Summarise a value→count histogram (mean/max/p50/p95)."""
    if not counter:
        return {"count": 0, "mean": None, "max": None, "p50": None,
                "p95": None}
    expanded: List = []
    total = 0
    weighted = 0
    for value in sorted(counter):
        count = counter[value]
        expanded.extend([value] * count)
        total += count
        weighted += value * count
    return {
        "count": total,
        "mean": round(weighted / total, 4),
        "max": expanded[-1],
        "p50": _percentile(expanded, 0.50),
        "p95": _percentile(expanded, 0.95),
    }


class _FlowStats:
    """Per-flow accumulator (one per distinct flow id seen)."""

    __slots__ = (
        "packets", "misses", "depth_sum", "depth_max", "probe_sum",
        "probe_max", "replays", "invalidations",
    )

    def __init__(self) -> None:
        self.packets = 0
        self.misses = 0
        self.depth_sum = 0
        self.depth_max = 0
        self.probe_sum = 0
        self.probe_max = 0
        self.replays = 0
        self.invalidations = 0


def analyze_events(
    events: Iterable[dict],
    top: int = 5,
    dropped: Optional[int] = None,
) -> dict:
    """Fold an event stream into the flow-level report dict.

    Args:
        events: Trace events as dicts (``ts``/``event`` plus the
            per-type fields) — a JSONL load or ``Tracer.iter_dicts()``.
        top: Number of flows/tables to name in the pathological lists.
        dropped: Ring-wraparound drop count, when analyzing a live
            tracer (recorded verbatim so the report states its own
            completeness).
    """
    by_event: Counter = Counter()
    flame: Counter = Counter()
    flows: Dict[str, _FlowStats] = {}
    depth_hist: Counter = Counter()
    probe_hist: Counter = Counter()
    # (cache, table) -> [probes, hits]
    tables: Dict[tuple, List[int]] = {}

    total = 0
    for event in events:
        total += 1
        kind = event.get("event", "?")
        by_event[kind] += 1
        cache = event.get("cache", "-")
        if kind == "ltm_probe":
            table = event.get("table")
            flame[(cache, f"gf{table}", kind)] += 1
            cell = tables.get((cache, table))
            if cell is None:
                cell = tables[(cache, table)] = [0, 0]
            cell[0] += 1
            if event.get("matched"):
                cell[1] += 1
            continue
        flame[(cache, "-", kind)] += 1
        flow = event.get("flow")
        if flow is None:
            continue
        stats = flows.get(flow)
        if stats is None:
            stats = flows[flow] = _FlowStats()
        if kind in OUTCOME_EVENTS:
            stats.packets += 1
            if kind == "lookup_miss":
                stats.misses += 1
            elif kind == "fastpath_replay":
                stats.replays += 1
            depth = event.get("tables_hit")
            if depth is not None:
                stats.depth_sum += depth
                if depth > stats.depth_max:
                    stats.depth_max = depth
                depth_hist[depth] += 1
            probes = event.get("groups_probed")
            if probes is not None:
                stats.probe_sum += probes
                if probes > stats.probe_max:
                    stats.probe_max = probes
                probe_hist[probes] += 1
        elif kind == "fastpath_invalidate":
            stats.invalidations += 1

    report = {
        "events": total,
        "dropped": dropped,
        "by_event": {
            name: count
            for name, count in sorted(
                by_event.items(), key=lambda kv: (-kv[1], kv[0])
            )
        },
        "flows": {
            "count": len(flows),
            "chain_depth": _distribution(depth_hist),
            "probes": _distribution(probe_hist),
        },
        "flame": [
            {"cache": c, "table": t, "event": e, "count": n}
            for (c, t, e), n in sorted(
                flame.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ],
        "pathological": _pathological(flows, top),
        "tables": _table_shares(tables),
    }
    report["reorder_suggestion"] = _reorder_suggestion(report["tables"])
    return report


def _pathological(flows: Dict[str, _FlowStats], top: int) -> dict:
    """Name the flows worth a human's attention, deterministically."""
    deepest = sorted(
        (f for f in flows.items() if f[1].packets),
        key=lambda kv: (-kv[1].depth_max, -kv[1].depth_sum, kv[0]),
    )[:top]
    invalidated = sorted(
        (f for f in flows.items() if f[1].invalidations),
        key=lambda kv: (-kv[1].invalidations, kv[0]),
    )[:top]
    return {
        "deepest_chains": [
            {
                "flow": flow,
                "max_depth": s.depth_max,
                "mean_depth": round(s.depth_sum / s.packets, 4),
                "packets": s.packets,
                "misses": s.misses,
            }
            for flow, s in deepest
        ],
        "repeat_invalidations": [
            {
                "flow": flow,
                "invalidations": s.invalidations,
                "packets": s.packets,
            }
            for flow, s in invalidated
        ],
    }


def _table_shares(tables: Dict[tuple, List[int]]) -> List[dict]:
    """Per-LTM-table probe/hit counts and pipeline-wide shares."""
    total_probes = sum(cell[0] for cell in tables.values())
    total_hits = sum(cell[1] for cell in tables.values())
    rows = []
    for (cache, table), (probes, hits) in sorted(tables.items()):
        rows.append(
            {
                "cache": cache,
                "table": table,
                "probes": probes,
                "hits": hits,
                "hit_rate": round(hits / probes, 4) if probes else 0.0,
                "probe_share": round(probes / total_probes, 4)
                if total_probes
                else 0.0,
                "hit_share": round(hits / total_hits, 4)
                if total_hits
                else 0.0,
            }
        )
    return rows


def _reorder_suggestion(table_rows: List[dict]) -> dict:
    """Rank LTM tables by hits-per-probe and flag inversions.

    A table late in the walk with a higher hit rate than an earlier one
    is an inversion: its segment resolves more of the traffic it sees,
    so placing that segment earlier shortens the average chain walk.
    Ranking ties break toward the current position (table index), so
    an already-optimal pipeline yields its own order and no suggestion.
    """
    if not table_rows:
        return {"current_order": [], "ranked_by_hit_rate": [],
                "suggestion": None}
    # Restrict to the cache with the most probes (deterministic
    # tie-break by name) — shares only compare within one pipeline.
    probes_by_cache: Counter = Counter()
    for row in table_rows:
        probes_by_cache[row["cache"]] += row["probes"]
    cache = min(
        probes_by_cache, key=lambda name: (-probes_by_cache[name], name)
    )
    rows = [row for row in table_rows if row["cache"] == cache]
    current = [row["table"] for row in rows]
    ranked = [
        row["table"]
        for row in sorted(
            rows, key=lambda r: (-r["hit_rate"], r["table"])
        )
    ]
    suggestion = None
    if ranked != current:
        by_table = {row["table"]: row for row in rows}
        # First inversion, walk order: the earliest position where a
        # later table out-resolves the one currently placed there.
        for position, (now_t, want_t) in enumerate(zip(current, ranked)):
            if now_t != want_t:
                suggestion = (
                    f"table gf{want_t} resolves "
                    f"{by_table[want_t]['hit_rate']:.1%} of its probes "
                    f"vs gf{now_t}'s {by_table[now_t]['hit_rate']:.1%} "
                    f"at walk position {position} — mapping the "
                    f"gf{want_t} segment earlier would shorten the "
                    f"average chain walk"
                )
                break
    return {
        "cache": cache,
        "current_order": current,
        "ranked_by_hit_rate": ranked,
        "suggestion": suggestion,
    }


def analyze_jsonl(path: str, top: int = 5) -> dict:
    """Analyze a trace JSONL file (a tracer sink's output)."""
    return analyze_events(load_jsonl(path), top=top)


def analyze_tracer(tracer, top: int = 5) -> dict:
    """Analyze a live tracer's ring contents (no file round-trip).

    The ring holds the newest ``capacity`` events; the report records
    the wraparound drop count so partial coverage is explicit.
    """
    return analyze_events(
        tracer.iter_dicts(), top=top, dropped=tracer.dropped
    )


# -- rendering -------------------------------------------------------------------


def render_text(report: dict, top: int = 5) -> str:
    """Render the report as the aligned-table text ``repro trace``
    prints (JSON output is just the report dict)."""
    lines: List[str] = []
    out = lines.append
    out(f"events analyzed : {report['events']}")
    if report.get("dropped"):
        out(f"ring dropped    : {report['dropped']} "
            "(oldest events not covered)")
    out(f"flows seen      : {report['flows']['count']}")
    depth = report["flows"]["chain_depth"]
    probes = report["flows"]["probes"]
    if depth["count"]:
        out(
            "chain depth     : "
            f"mean {depth['mean']}  p50 {depth['p50']}  "
            f"p95 {depth['p95']}  max {depth['max']}"
        )
    if probes["count"]:
        out(
            "groups probed   : "
            f"mean {probes['mean']}  p50 {probes['p50']}  "
            f"p95 {probes['p95']}  max {probes['max']}"
        )

    out("")
    out("== event counts ==")
    for name, count in report["by_event"].items():
        out(f"{name:22} {count:>10}")

    flame = report["flame"]
    if flame:
        out("")
        out("== rollup (cache / table / event) ==")
        for row in flame[: top * 4]:
            out(
                f"{row['cache']:<18} {row['table']:<6} "
                f"{row['event']:<20} {row['count']:>10}"
            )

    tables = report["tables"]
    if tables:
        out("")
        out("== ltm tables ==")
        out(
            f"{'table':<8} {'probes':>8} {'hits':>8} {'hit_rate':>9} "
            f"{'probe_share':>12} {'hit_share':>10}"
        )
        for row in tables:
            out(
                f"gf{row['table']:<6} {row['probes']:>8} "
                f"{row['hits']:>8} {row['hit_rate']:>9.4f} "
                f"{row['probe_share']:>12.4f} {row['hit_share']:>10.4f}"
            )

    path = report["pathological"]
    if path["deepest_chains"]:
        out("")
        out("== deepest chains ==")
        for row in path["deepest_chains"][:top]:
            out(
                f"flow {row['flow']}  max_depth={row['max_depth']}  "
                f"mean_depth={row['mean_depth']}  "
                f"packets={row['packets']}  misses={row['misses']}"
            )
    if path["repeat_invalidations"]:
        out("")
        out("== repeated fast-path invalidations ==")
        for row in path["repeat_invalidations"][:top]:
            out(
                f"flow {row['flow']}  invalidations="
                f"{row['invalidations']}  packets={row['packets']}"
            )

    reorder = report["reorder_suggestion"]
    out("")
    out("== pipeline order ==")
    if reorder.get("suggestion"):
        out(f"suggestion: {reorder['suggestion']}")
    elif reorder.get("current_order"):
        out("pipeline order matches the hit-rate ranking — no "
            "reordering suggested")
    else:
        out("no ltm_probe events in trace — enable the ltm_probe "
            "event to get placement analysis")
    return "\n".join(lines) + "\n"
