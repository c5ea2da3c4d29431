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
)
from .churn import ChurnConfig, ChurnRuntime
from .fastpath import FastPathIndex
from .fanout import PartContext, PartError
from .results import SimResult, TimeSeries
from .sharded import (
    ShardedSimulator,
    ShardTimeoutError,
    flow_shard,
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
    "PartContext",
    "PartError",
    "ShardTimeoutError",
    "ShardedSimulator",
    "SimConfig",
    "SimResult",
    "TimeSeries",
    "VSwitchSimulator",
    "flow_shard",
    "split_trace",
]
