"""End-to-end simulation engine and result records."""

from .engine import (
    AdaptiveGigaflowSystem,
    CachingSystem,
    GigaflowSystem,
    HierarchySystem,
    InstallCost,
    MegaflowSystem,
    PacketKernel,
    SimConfig,
    VSwitchSimulator,
    run_comparison,
)
from .churn import ChurnConfig, ChurnRuntime, resolve_churn
from .fastpath import FastPathIndex
from .results import SimResult, TimeSeries
from .sharded import (
    ShardContext,
    ShardedSimulator,
    ShardTimeoutError,
    ShardWorkerError,
    flow_shard,
    shard_seed,
    split_trace,
)

__all__ = [
    "AdaptiveGigaflowSystem",
    "CachingSystem",
    "ChurnConfig",
    "ChurnRuntime",
    "FastPathIndex",
    "GigaflowSystem",
    "HierarchySystem",
    "InstallCost",
    "MegaflowSystem",
    "PacketKernel",
    "ShardContext",
    "ShardTimeoutError",
    "ShardWorkerError",
    "ShardedSimulator",
    "SimConfig",
    "SimResult",
    "TimeSeries",
    "VSwitchSimulator",
    "flow_shard",
    "resolve_churn",
    "shard_seed",
    "split_trace",
    "run_comparison",
]
