"""§6.3.6: per-backend hit latency and 2× faster cache revalidation.

Two results: (a) the table of measured cache-hit latencies per OVS
configuration — reproduced by the calibrated latency model; (b) Gigaflow
revalidates its cache about twice as fast as Megaflow (272 ms vs 527 ms on
OLS in the paper) because sub-traversal replays are shorter than full
traversal replays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..cache.megaflow import MegaflowCache
from ..core.gigaflow import GigaflowCache
from ..core.revalidation import IncrementalRevalidator
from ..metrics.latency import HIT_LATENCY_US
from .common import GF_TABLES, ExperimentScale, SMALL_SCALE

#: Modelled cost of replaying one pipeline table lookup, µs (calibrated so
#: that an OLS-size Megaflow revalidation lands in the paper's hundreds of
#: milliseconds at paper scale).
REPLAY_LOOKUP_US = 1.25


def hit_latency_table() -> Dict[str, float]:
    """§6.3.6's latency table (µs per cache hit, per backend)."""
    return dict(HIT_LATENCY_US)


@dataclass
class RevalidationComparison:
    megaflow_entries: int
    gigaflow_entries: int
    megaflow_lookups: int
    gigaflow_lookups: int
    megaflow_evicted: int
    gigaflow_evicted: int

    @property
    def speedup(self) -> float:
        """How much faster Gigaflow's revalidation cycle is (paper: ~2×)."""
        if not self.gigaflow_lookups:
            return float("inf")
        return self.megaflow_lookups / self.gigaflow_lookups

    @property
    def megaflow_ms(self) -> float:
        return self.megaflow_lookups * REPLAY_LOOKUP_US / 1000.0

    @property
    def gigaflow_ms(self) -> float:
        return self.gigaflow_lookups * REPLAY_LOOKUP_US / 1000.0


def revalidation_comparison(
    pipeline_name: str = "OLS",
    locality: str = "high",
    scale: ExperimentScale = SMALL_SCALE,
) -> RevalidationComparison:
    """Fill both caches from the same workload, revalidate, compare cost.

    Both caches are revalidating a *consistent* pipeline here, so nothing
    should be evicted — the comparison isolates replay cost.  Lookups per
    entry equal the cached (sub-)traversal length, so the total ratio is
    (mean traversal length × flows) / (mean sub-traversal length ×
    sub-traversal rules).
    """
    workload = replace(
        scale, pipeline=pipeline_name, locality=locality
    ).workload()
    pipeline = workload.pipeline

    megaflow = MegaflowCache(capacity=10**9)
    gigaflow = GigaflowCache(num_tables=GF_TABLES,
                             table_capacity=10**9)
    for pilot in workload.pilots:
        if not pilot.cacheable:
            continue
        megaflow.install_traversal(pilot.traversal)
        gigaflow.install_traversal(pilot.traversal)

    mf_report = IncrementalRevalidator(pipeline, megaflow).revalidate()
    gf_report = IncrementalRevalidator(pipeline, gigaflow).revalidate()
    return RevalidationComparison(
        megaflow_entries=mf_report.entries_checked,
        gigaflow_entries=gf_report.entries_checked,
        megaflow_lookups=mf_report.lookups_performed,
        gigaflow_lookups=gf_report.lookups_performed,
        megaflow_evicted=mf_report.entries_evicted,
        gigaflow_evicted=gf_report.entries_evicted,
    )
