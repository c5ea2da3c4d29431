"""Text rendering: aligned tables and the telemetry digest.

Turns a telemetry summary into the table ``repro stats`` prints.
Everything is dependency-free text (this is a simulator, not a plotting
package).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """A right-aligned fixed-width table (first column left-aligned)."""
    materialised: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        parts = [f"{cells[0]:<{widths[0]}}"]
        parts += [
            f"{cell:>{width}}"
            for cell, width in zip(cells[1:], widths[1:])
        ]
        return "  ".join(parts)

    lines = []
    if title:
        lines.append(title)
    lines.append(format_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(format_row(row) for row in materialised)
    return "\n".join(lines)


def render_telemetry(summary: Dict) -> str:
    """Human-readable digest of a :attr:`SimResult.telemetry` summary.

    Takes the dict produced by
    :meth:`~repro.obs.telemetry.Telemetry.summary` and renders the
    headline counters as one aligned table, with per-reason breakdowns
    inlined (``evictions[idle]=...``-style rows).
    """
    if not summary:
        return "(no telemetry)"
    rows = []
    lookups = summary.get("lookups", {})
    total = sum(lookups.values())
    rows.append(("lookups", total))
    for outcome in sorted(lookups):
        rows.append((f"  {outcome}", lookups[outcome]))
    rows.append(("slow-path installs", summary.get("installs", 0)))
    evictions = summary.get("evictions", {})
    rows.append(("evictions", sum(evictions.values())))
    for reason in sorted(evictions):
        rows.append((f"  {reason}", evictions[reason]))
    reval = summary.get("revalidation", {})
    if reval:
        rows.append(("revalidated", sum(reval.values())))
        for verdict in sorted(reval):
            rows.append((f"  {verdict}", reval[verdict]))
    switches = summary.get("mode_switches", {})
    if switches:
        rows.append(("mode switches", sum(switches.values())))
        for mode in sorted(switches):
            rows.append((f"  to {mode}", switches[mode]))
    fastpath = summary.get("fastpath", {})
    rows.append(("fast-path replays", fastpath.get("replays", 0)))
    rows.append(
        ("fast-path revalidations", fastpath.get("revalidations", 0))
    )
    rows.append(
        ("fast-path invalidations", fastpath.get("invalidations", 0))
    )
    rows.append(("epoch bumps", summary.get("epoch_bumps", 0)))
    rows.append(("snapshots", summary.get("snapshots", 0)))
    rows.append(
        ("mean lookup depth",
         f"{summary.get('lookup_depth_mean', 0.0):.3f}")
    )
    rows.append(
        ("occupancy", f"{summary.get('occupancy', 0.0):.3%}")
    )
    per_table = summary.get("per_table") or []
    if per_table:
        rows.append(
            ("entries/table", " ".join(str(n) for n in per_table))
        )
    rows.append(("trace events", summary.get("trace_events", 0)))
    if summary.get("trace_dropped"):
        rows.append(("trace dropped", summary["trace_dropped"]))
    title = f"telemetry: {summary.get('cache', '?')}"
    return render_table(("counter", "value"), rows, title=title)

