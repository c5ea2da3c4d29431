"""Text rendering: aligned tables and the telemetry table.

Turns a telemetry hub's registry into the table ``repro stats`` prints.
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


def _by_label(registry, family: str, cache: str) -> Dict[str, object]:
    """``{second label: value}`` of one cache's children of a family."""
    return {
        labels[1]: child.value
        for labels, child in registry.get(family).children()
        if labels[0] == cache
    }


def _child(registry, family: str, cache: str):
    """One cache's child of a single-label family, or ``None`` — read
    without ``labels()``, which would create the series."""
    return dict(registry.get(family).children()).get((cache,))


def render_telemetry(telemetry) -> str:
    """Human-readable digest of a :class:`~repro.obs.telemetry.Telemetry`
    hub after a run.

    Reads the hub's registry for the attached cache (named by the last
    snapshot), the tracer's event counts and the last snapshot's
    occupancy, and renders the headline counters as one aligned table,
    with per-reason breakdowns as indented rows.
    """
    if not telemetry.snapshots:
        return "(no telemetry)"
    telemetry.flush()
    registry = telemetry.registry
    last = telemetry.snapshots[-1]
    cache = last.cache

    def value(family: str):
        child = _child(registry, family, cache)
        return child.value if child is not None else 0

    rows = []
    lookups = _by_label(registry, "repro_cache_lookups_total", cache)
    rows.append(("lookups", sum(lookups.values())))
    for outcome in sorted(lookups):
        rows.append((f"  {outcome}", lookups[outcome]))
    rows.append(
        ("slow-path installs", value("repro_slowpath_installs_total"))
    )
    evictions = _by_label(registry, "repro_cache_evictions_total", cache)
    rows.append(("evictions", sum(evictions.values())))
    for reason in sorted(evictions):
        rows.append((f"  {reason}", evictions[reason]))
    reval = _by_label(registry, "repro_revalidation_checked_total", cache)
    if reval:
        rows.append(("revalidated", sum(reval.values())))
        for verdict in sorted(reval):
            rows.append((f"  {verdict}", reval[verdict]))
    switches = _by_label(registry, "repro_mode_switches_total", cache)
    if switches:
        rows.append(("mode switches", sum(switches.values())))
        for mode in sorted(switches):
            rows.append((f"  to {mode}", switches[mode]))
    rows.append(("fast-path replays", value("repro_fastpath_replays_total")))
    rows.append((
        "fast-path revalidations",
        value("repro_fastpath_revalidations_total"),
    ))
    rows.append((
        "fast-path invalidations",
        value("repro_fastpath_invalidations_total"),
    ))
    rows.append(("epoch bumps", value("repro_epoch_bumps_total")))
    rows.append(("snapshots", value("repro_snapshots_total")))
    depth = _child(registry, "repro_lookup_depth", cache)
    rows.append((
        "mean lookup depth",
        f"{depth.sum / depth.count if depth.count else 0.0:.3f}",
    ))
    rows.append(("occupancy", f"{last.occupancy:.3%}"))
    if last.per_table:
        rows.append(
            ("entries/table", " ".join(str(n) for n in last.per_table))
        )
    tracer = telemetry.tracer
    rows.append(("trace events", tracer.emitted))
    if tracer.dropped:
        rows.append(("trace dropped", tracer.dropped))
    return render_table(
        ("counter", "value"), rows, title=f"telemetry: {cache}"
    )
