"""§6.1's baseline configurations, end to end.

The paper compares OVS/Kernel and OVS/DPDK (host and BlueField ARM)
against the Megaflow and Gigaflow SmartNIC offloads.  The software
configurations run the Microflow→Megaflow hierarchy on a CPU — same cache
behaviour, different per-hit latency — while the offloads serve hits at
the FPGA's 8.62 µs.  This driver produces the §6.3.6-style ranking with
honest hit rates from the simulator and the calibrated per-backend
latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..metrics.latency import LatencyModel
from ..sim.engine import (
    CachingSystem,
    GigaflowSystem,
    HierarchySystem,
    MegaflowSystem,
    SimConfig,
    VSwitchSimulator,
)
from .common import ExperimentScale, SMALL_SCALE, fresh_workload


@dataclass
class BaselineResult:
    config: str
    backend: str
    hit_rate: float
    avg_latency_us: float


#: The §6.1 configurations: (label, system factory kind, latency backend).
BASELINE_CONFIGS = (
    ("OVS/Kernel (host)", "hierarchy", "kernel_host"),
    ("OVS/Kernel (BlueField ARM)", "hierarchy", "kernel_arm"),
    ("OVS/DPDK (host)", "hierarchy", "dpdk_host"),
    ("OVS/DPDK (BlueField ARM)", "hierarchy", "dpdk_arm"),
    ("OVS/Megaflow-Offload", "megaflow", "fpga_offload"),
    ("OVS/Gigaflow-Offload", "gigaflow", "fpga_offload"),
)


def compare_baselines(
    pipeline_name: str = "PSC",
    locality: str = "high",
    scale: ExperimentScale = SMALL_SCALE,
) -> Dict[str, BaselineResult]:
    """Run every §6.1 configuration over the same workload geometry."""
    results: Dict[str, BaselineResult] = {}
    for label, kind, backend in BASELINE_CONFIGS:
        workload = fresh_workload(pipeline_name, locality, scale)
        if kind == "hierarchy":
            system: CachingSystem = HierarchySystem(
                microflow_capacity=scale.cache_capacity // 4,
                megaflow_capacity=scale.cache_capacity,
                start_table=workload.pipeline.start_table,
            )
        elif kind == "megaflow":
            system = MegaflowSystem(capacity=scale.cache_capacity)
        else:
            system = GigaflowSystem(
                num_tables=scale.gf_tables,
                table_capacity=scale.gf_table_capacity,
            )
        config = SimConfig(
            max_idle=scale.max_idle,
            sweep_interval=max(scale.duration / 12.0, 1.0),
            latency=LatencyModel(backend=backend),
        )
        simulator = VSwitchSimulator(workload.pipeline, system, config)
        result = simulator.run(
            workload.trace(profile=scale.trace_profile(), seed=1)
        )
        results[label] = BaselineResult(
            config=label,
            backend=backend,
            hit_rate=result.hit_rate,
            avg_latency_us=result.avg_latency_us,
        )
    return results
