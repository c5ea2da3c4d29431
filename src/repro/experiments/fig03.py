"""Fig. 3: more cache tables → fewer misses and fewer entries (OLS).

The motivating experiment: the OLS pipeline against unique flows, sweeping
the number of Gigaflow tables K from 1 (the Megaflow degenerate case) to 4,
with a fixed per-table entry budget.  The paper reports up to 90% fewer
misses and 335× more rule-space coverage at K=4 with only 10K entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from ..core.coverage import coverage
from ..core.gigaflow import GigaflowCache
from .common import ExperimentScale, SMALL_SCALE


@dataclass
class TableSweepPoint:
    """One K in the sweep."""

    k_tables: int
    misses: int
    peak_entries: int
    hit_rate: float
    coverage: int


def sweep_tables(
    pipeline_name: str = "OLS",
    k_values=(1, 2, 3, 4),
    locality: str = "high",
    scale: ExperimentScale = SMALL_SCALE,
) -> List[TableSweepPoint]:
    """Run the K-sweep.  Each K gets the same per-table budget, as in
    Fig. 14/15's setup (a fixed 100K per table in the paper)."""
    scale = replace(scale, pipeline=pipeline_name, locality=locality)
    points = []
    per_table = scale.gf_table_capacity
    for k in k_values:
        workload = scale.workload()
        result = scale.run(scale.system("gigaflow", num_tables=k), workload)
        # Steady-state coverage: install the whole workload into a fresh
        # cache (the simulated run's final cache may have been drained by
        # idle expiry, which would understate coverage).  Reject-on-full
        # matches the paper's "install while not full" formulation.
        steady = GigaflowCache(
            num_tables=k, table_capacity=per_table, eviction="reject"
        )
        for pilot in workload.pilots:
            if pilot.cacheable:
                steady.install_traversal(pilot.traversal)
        points.append(
            TableSweepPoint(
                k_tables=k,
                misses=result.misses,
                peak_entries=result.peak_entries,
                hit_rate=result.hit_rate,
                coverage=coverage(steady),
            )
        )
    return points
