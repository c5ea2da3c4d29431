"""Table 2: maximum rule-space coverage — Gigaflow (4×8K) vs Megaflow (32K).

Megaflow's coverage is bounded by its entry count; Gigaflow's is the
number of complete LTM rule chains (cross-products across tables) that
some packet can take, counted exactly.  The paper reports 459× (OFD),
156× (PSC), 337× (OLS), 40× (ANT) and 1.5× (OTL) with high-locality
workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from ..core.coverage import (
    CoverageStateLimitError,
    coverage,
    satisfiable_coverage,
)
from ..core.gigaflow import GigaflowCache
from .common import GF_TABLES, ExperimentScale, PIPELINE_NAMES, SMALL_SCALE


@dataclass
class CoverageRow:
    pipeline: str
    megaflow_coverage: int  # = its capacity, each entry covers one class
    gigaflow_coverage: int  # raw tag-chain count (upper bound)
    gigaflow_entries: int
    gigaflow_satisfiable: int = 0  # exact packet-satisfiable count

    @property
    def satisfiable_ratio(self) -> float:
        """The honest Table 2 number: only chains a real packet can take."""
        return self.gigaflow_satisfiable / max(self.megaflow_coverage, 1)


def table2_coverage(
    pipelines: Tuple[str, ...] = PIPELINE_NAMES,
    locality: str = "high",
    scale: ExperimentScale = SMALL_SCALE,
) -> Dict[str, CoverageRow]:
    """Fill the caches from the whole workload and count coverage.

    The Megaflow column equals the cache capacity (every entry covers
    exactly one traversal class, and under the paper's high-locality
    setting the 32K cache is essentially full — Fig. 10 reports 93%
    occupancy).  The Gigaflow columns count the installed LTM rules'
    chains exactly: every tag-linked chain (the DAG bound), and the
    chains some packet can take.

    Raises:
        CoverageStateLimitError: The exact count outgrew its state
            bound; the error names the pipeline.
    """
    rows = {}
    for name in pipelines:
        workload = replace(scale, pipeline=name, locality=locality).workload()
        # Maximum steady-state coverage uses the paper's "install while
        # not full" formulation (§4.2.1): filling with reject-on-full
        # keeps early complete chains intact, whereas LRU churn during a
        # bulk install would break chains and understate coverage.
        cache = GigaflowCache(
            num_tables=GF_TABLES,
            table_capacity=scale.gf_table_capacity,
            eviction="reject",
        )
        for pilot in workload.pilots:
            if pilot.cacheable:
                cache.install_traversal(pilot.traversal)
        try:
            satisfiable = satisfiable_coverage(cache)
        except CoverageStateLimitError as err:
            raise CoverageStateLimitError(
                err.table, err.states, pipeline=name
            ) from None
        rows[name] = CoverageRow(
            pipeline=name,
            megaflow_coverage=scale.capacity,
            gigaflow_coverage=coverage(cache),
            gigaflow_entries=cache.entry_count(),
            gigaflow_satisfiable=satisfiable,
        )
    return rows


def format_table2(rows: Dict[str, CoverageRow]) -> str:
    lines = [
        "Pipeline  Megaflow  GF-chains   GF-satisfiable      Ratio"
    ]
    for name, row in rows.items():
        lines.append(
            f"{name:<9} {row.megaflow_coverage:>8} "
            f"{row.gigaflow_coverage:>10} {row.gigaflow_satisfiable:>14}"
            f"  {row.satisfiable_ratio:>8.1f}x"
        )
    return "\n".join(lines)
