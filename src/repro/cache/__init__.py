"""Baseline caches: exact-match Microflow and single-table Megaflow."""

from .base import CacheResult, CacheStats, FlowCache
from .eviction import (
    EVICTION_POLICIES,
    POLICY_NAMES,
    EvictionPolicy,
    LruPolicy,
    SharingAwarePolicy,
    make_policy,
)
from .microflow import MicroflowCache
from .megaflow import MegaflowCache, MegaflowEntry, build_megaflow_entry
from .hierarchy import CacheHierarchy

__all__ = [
    "CacheHierarchy",
    "CacheResult",
    "CacheStats",
    "EVICTION_POLICIES",
    "EvictionPolicy",
    "FlowCache",
    "LruPolicy",
    "MegaflowCache",
    "MegaflowEntry",
    "MicroflowCache",
    "POLICY_NAMES",
    "SharingAwarePolicy",
    "build_megaflow_entry",
    "make_policy",
]
