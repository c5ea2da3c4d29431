"""Fig. 17: software cache search algorithms — TSS vs Nuevomatch.

Here the caches run in *software*, so per-lookup search cost matters.
Nuevomatch trims Megaflow's lookup cost (13.4 → 12.5 µs in the paper) but
cannot touch the miss volume; Gigaflow attacks the misses themselves and
wins even with plain TSS (9.8 µs), with NM adding a little more (9.65 µs).

We run the end-to-end simulations to get honest hit/miss mixes and rule
populations, fit a real
:class:`~repro.experiments.nuevomatch.NuevoMatchClassifier` on the
resulting Megaflow rules to measure its iSet statistics, and price
lookups with the calibrated software-search cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..cache.megaflow import MegaflowCache
from ..metrics.latency import software_search_us
from .common import ExperimentScale, SMALL_SCALE
from .nuevomatch import NuevoMatchClassifier

#: Software-cache fixed hit overhead (packet I/O etc.), µs.
SW_HIT_BASE_US = 7.0


@dataclass
class SearchConfig:
    system: str  # "megaflow" | "gigaflow"
    algorithm: str  # "tss" | "nm"
    avg_latency_us: float
    hit_rate: float
    search_us: float


#: Per-LTM-table NuevoMatch inference base (the per-table models are tiny
#: compared to a monolithic cache's).
GF_NM_TABLE_BASE_US = 0.25

#: Marginal NuevoMatch model cost per mask group it replaces.
NM_ISET_US_PER_GROUP = 0.01


def _nm_stats(cache: MegaflowCache) -> NuevoMatchClassifier:
    # A cross-product-shaped cache holds many rules per distinct range, so
    # NuevoMatch needs more (small) iSets than its ClassBench defaults.
    classifier = NuevoMatchClassifier(max_isets=64, min_iset_size=4)
    classifier.fit(list(cache))
    return classifier


def compare_search_algorithms(
    pipeline_name: str = "PSC",
    locality: str = "high",
    scale: ExperimentScale = SMALL_SCALE,
) -> Dict[str, SearchConfig]:
    """The four Fig. 17 configurations.

    Runs without idle expiry so the caches retain their steady-state rule
    populations — the mask/iSet statistics that price each software
    search come from the final cache contents.
    """
    scale = replace(
        scale, pipeline=pipeline_name, locality=locality, max_idle=0.0
    )
    results: Dict[str, SearchConfig] = {}

    mf_system = scale.system("megaflow")
    mf = scale.run(mf_system)
    mf_groups = mf_system.cache.mask_group_count or 1
    nm = _nm_stats(mf_system.cache)

    gf_system = scale.system("gigaflow")
    gf = scale.run(gf_system)
    # A Gigaflow lookup probes each table's single tag bucket, whose mask
    # diversity is tiny compared to a monolithic Megaflow cache — measure
    # it from the installed rules.
    gf_groups_per_lookup = sum(
        table.mean_group_count() for table in gf_system.cache.tables
    )
    gf_tables = len(gf_system.cache.tables)

    for system_name, result, algorithm, search in (
        ("megaflow", mf, "tss",
         software_search_us("tss", mask_groups=mf_groups)),
        ("megaflow", mf, "nm",
         software_search_us(
             "nm",
             isets=nm.iset_count,
             remainder_groups=nm.remainder_group_count,
         )),
        ("gigaflow", gf, "tss",
         software_search_us(
             "tss", mask_groups=max(1, round(gf_groups_per_lookup))
         )),
        ("gigaflow", gf, "nm",
         gf_tables * GF_NM_TABLE_BASE_US
         + NM_ISET_US_PER_GROUP * gf_groups_per_lookup),
    ):
        hit_us = SW_HIT_BASE_US + search
        avg = result.hit_rate * hit_us + (
            1.0 - result.hit_rate
        ) * result.avg_miss_cost_us
        results[f"{system_name}-{algorithm}"] = SearchConfig(
            system=system_name,
            algorithm=algorithm,
            avg_latency_us=avg,
            hit_rate=result.hit_rate,
            search_us=search,
        )
    return results
