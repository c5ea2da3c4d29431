"""Baseline caches: exact-match Microflow and single-table Megaflow."""

from .base import CacheResult, CacheStats, FlowCache
from .microflow import MicroflowCache
from .megaflow import MegaflowCache, MegaflowEntry, build_megaflow_entry
from .hierarchy import CacheHierarchy

__all__ = [
    "CacheHierarchy",
    "CacheResult",
    "CacheStats",
    "FlowCache",
    "MegaflowCache",
    "MegaflowEntry",
    "MicroflowCache",
    "build_megaflow_entry",
]
