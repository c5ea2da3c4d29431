"""Fig. 18: hit rate under dynamically arriving workloads.

Two equal workloads share the PSC pipeline; the second starts midway
through the run.  Megaflow's hit rate collapses when the new flows arrive
(its per-flow entries must be rebuilt under capacity pressure: 84% →
61% in the paper) while Gigaflow sustains (93%) because the newcomers are
largely pre-covered by cross-products of already-cached sub-traversals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..sim.engine import VSwitchSimulator
from ..sim.results import SimResult
from .common import ExperimentScale, SMALL_SCALE


@dataclass
class DynamicResult:
    system: str
    series: List[Tuple[float, float]]
    hit_rate_before: float
    hit_rate_after: float
    result: SimResult

    @property
    def drop(self) -> float:
        """Hit-rate drop when the second workload arrives."""
        return self.hit_rate_before - self.hit_rate_after


def dynamic_workloads(
    pipeline_name: str = "PSC",
    locality: str = "high",
    scale: ExperimentScale = SMALL_SCALE,
) -> Tuple[DynamicResult, DynamicResult]:
    """Run Megaflow and Gigaflow through the two-phase arrival.

    Phase 1 runs flows [0:n/2] from time 0; phase 2 injects flows
    [n/2:n] at ``duration`` (the paper's t=5 min, scaled).  Returns the
    (megaflow, gigaflow) results with before/after hit rates.
    """
    scale = replace(scale, pipeline=pipeline_name, locality=locality)
    offset = scale.duration * 2.0
    # Phase 1 gets twice the nominal duration so the caches reach steady
    # state; phase 2 arrives compressed (as the paper's second workload
    # does) to make the transient visible.
    phase1 = replace(scale, duration=offset)
    phase2 = replace(
        scale, duration=scale.duration / 6.0, trace_seed=scale.trace_seed + 1
    )
    results = []
    for name in ("megaflow", "gigaflow"):
        # One pipeline populated with both workloads' rules; two pilot
        # sets.
        workload = scale.workload()
        half = len(workload.pilots) // 2
        trace1 = phase1.trace(workload, pilots=workload.pilots[:half])
        trace2 = phase2.trace(
            workload, offset=offset, pilots=workload.pilots[half:]
        )
        trace = trace1.merged_with(trace2)
        system = scale.system(name)
        simulator = VSwitchSimulator(
            workload.pipeline, system, scale.sim_config()
        )
        result = simulator.run(trace)
        # Compare phase 1's warmed-up tail against the dip right after the
        # arrival (the paper plots the instantaneous drop at t = 5 min).
        before = result.series.hit_rate_between(offset * 0.6, offset)
        dip_buckets = [
            rate
            for start, rate in result.series.buckets()
            if offset <= start < offset + scale.duration * 0.6
        ]
        after = min(dip_buckets) if dip_buckets else 0.0
        results.append(
            DynamicResult(
                system=system.name,
                series=result.series.buckets(),
                hit_rate_before=before,
                hit_rate_after=after,
                result=result,
            )
        )
    return tuple(results)
