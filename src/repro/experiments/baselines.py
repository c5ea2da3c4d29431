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

from dataclasses import dataclass, replace
from typing import Dict

from ..metrics.latency import LatencyModel
from .common import ExperimentScale, SMALL_SCALE


@dataclass
class BaselineResult:
    config: str
    backend: str
    hit_rate: float
    avg_latency_us: float


#: The §6.1 configurations: (label, caching system, latency backend).
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
    scale = replace(scale, pipeline=pipeline_name, locality=locality)
    results: Dict[str, BaselineResult] = {}
    for label, system, backend in BASELINE_CONFIGS:
        result = scale.run(
            scale.system(system), latency=LatencyModel(backend=backend)
        )
        results[label] = BaselineResult(
            config=label,
            backend=backend,
            hit_rate=result.hit_rate,
            avg_latency_us=result.avg_latency_us,
        )
    return results
