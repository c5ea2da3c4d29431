"""Fig. 16: partitioning schemes — RND vs DP vs the ideal 1-1 mapping.

On the OLS pipeline, random partitioning (RND) barely beats Megaflow
while consuming the whole cache; disjoint partitioning (DP) removes most
misses using a fraction of the entries; the ideal 1-1 mapping (one cache
table per pipeline table) is slightly better on misses but needs ~2.8×
more entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..core.partition import (
    RandomPartitioner,
    disjoint_partition,
    one_to_one_partition,
)
from .common import ExperimentScale, SMALL_SCALE


@dataclass
class SchemeResult:
    scheme: str
    misses: int
    peak_entries: int
    hit_rate: float


def compare_partitioners(
    pipeline_name: str = "OLS",
    locality: str = "high",
    scale: ExperimentScale = SMALL_SCALE,
) -> Dict[str, SchemeResult]:
    """Run Megaflow, RND, DP and 1-1 over the same workload geometry.

    The 1-1 mapping assumes the SmartNIC has one table per pipeline table
    (the paper's idealised upper bound), so it gets as many tables as the
    pipeline's longest traversal — with the same per-table budget.
    """
    scale = replace(scale, pipeline=pipeline_name, locality=locality)
    results: Dict[str, SchemeResult] = {}

    mf = scale.run(scale.system("megaflow"))
    results["megaflow"] = SchemeResult(
        "megaflow", mf.misses, mf.peak_entries, mf.hit_rate
    )

    rnd = scale.run(scale.system(
        "gigaflow", partitioner=RandomPartitioner(seed=scale.seed)
    ))
    results["rnd"] = SchemeResult(
        "rnd", rnd.misses, rnd.peak_entries, rnd.hit_rate
    )

    dp = scale.run(scale.system("gigaflow", partitioner=disjoint_partition))
    results["dp"] = SchemeResult(
        "dp", dp.misses, dp.peak_entries, dp.hit_rate
    )

    workload = scale.workload()
    # The 1-1 ideal assumes one SmartNIC table per pipeline table of the
    # longest *actual* traversal (rule-chain detours can exceed the
    # longest template path).
    longest = max(
        len(pilot.traversal) for pilot in workload.pilots
    )
    one = scale.run(
        scale.system(
            "gigaflow",
            num_tables=longest,
            partitioner=one_to_one_partition,
        ),
        workload,
    )
    results["1-1"] = SchemeResult(
        "1-1", one.misses, one.peak_entries, one.hit_rate
    )
    return results
