"""Calibrated latency and CPU-cost models."""

from .latency import (
    HIT_LATENCY_JITTER_US,
    HIT_LATENCY_US,
    LatencyModel,
    NM_ISET_US,
    NM_REMAINDER_PROBE_US,
    SlowPathCostModel,
    TSS_PROBE_US,
    software_search_us,
)
from .cpu import (
    CpuBreakdown,
    CYCLES_PER_DP_CELL,
    CYCLES_PER_GROUP_PROBE,
    CYCLES_PER_LOOKUP,
    CYCLES_PER_RULE_GEN,
    CYCLES_PER_RULE_INSTALL,
    per_core_miss_load,
)

__all__ = [
    "CYCLES_PER_DP_CELL",
    "CYCLES_PER_GROUP_PROBE",
    "CYCLES_PER_LOOKUP",
    "CYCLES_PER_RULE_GEN",
    "CYCLES_PER_RULE_INSTALL",
    "CpuBreakdown",
    "HIT_LATENCY_JITTER_US",
    "HIT_LATENCY_US",
    "LatencyModel",
    "NM_ISET_US",
    "NM_REMAINDER_PROBE_US",
    "SlowPathCostModel",
    "TSS_PROBE_US",
    "per_core_miss_load",
    "software_search_us",
]
