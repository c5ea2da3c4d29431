"""Figs. 14 & 15: scaling the number of Gigaflow tables (2–5).

With a fixed per-table entry budget, adding SmartNIC tables reduces both
cache misses (Fig. 14) and per-flow cache entries (Fig. 15).  Different
pipelines saturate at different K: the paper finds OFD saturates by 2,
PSC by 3, OLS keeps improving to 4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from .common import ExperimentScale, PIPELINE_NAMES, SMALL_SCALE


@dataclass
class ScalingPoint:
    pipeline: str
    locality: str
    k_tables: int
    misses: int
    peak_entries: int
    hit_rate: float


def sweep_table_counts(
    pipelines: Tuple[str, ...] = PIPELINE_NAMES,
    k_values: Tuple[int, ...] = (2, 3, 4, 5),
    localities: Tuple[str, ...] = ("high", "low"),
    scale: ExperimentScale = SMALL_SCALE,
) -> List[ScalingPoint]:
    """The full Fig. 14/15 grid.

    As in the paper, each table keeps a fixed entry budget regardless of K
    (100K per table there; ``scale.gf_table_capacity`` here), so larger K
    means more total capacity *and* more partitioning freedom.
    """
    points = []
    for locality in localities:
        for name in pipelines:
            for k in k_values:
                cell = replace(scale, pipeline=name, locality=locality)
                result = cell.run(cell.system("gigaflow", num_tables=k))
                points.append(
                    ScalingPoint(
                        pipeline=name,
                        locality=locality,
                        k_tables=k,
                        misses=result.misses,
                        peak_entries=result.peak_entries,
                        hit_rate=result.hit_rate,
                    )
                )
    return points


def misses_by_k(
    points: List[ScalingPoint], pipeline: str, locality: str = "high"
) -> Dict[int, int]:
    return {
        p.k_tables: p.misses
        for p in points
        if p.pipeline == pipeline and p.locality == locality
    }


def entries_by_k(
    points: List[ScalingPoint], pipeline: str, locality: str = "high"
) -> Dict[int, int]:
    return {
        p.k_tables: p.peak_entries
        for p in points
        if p.pipeline == pipeline and p.locality == locality
    }
