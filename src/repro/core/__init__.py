"""Gigaflow core: LTM tables, partitioning, rule generation, coverage."""

from .ltm import TAG_DONE, LtmRule, LtmTable
from .partition import (
    Partition,
    Partitioner,
    RandomPartitioner,
    disjoint_boundaries,
    disjoint_partition,
    megaflow_partition,
    one_to_one_partition,
    partition_score,
    segment_score,
)
from .rulegen import build_ltm_rule, build_ltm_rules
from .gigaflow import GigaflowCache, InstallOutcome
from .adaptive import AdaptiveGigaflowCache, ModeGovernor
from .validate import (
    CacheInvariantError,
    ChainReport,
    chain_report,
    validate_cache,
)
from .coverage import (
    CoverageStateLimitError,
    chain_satisfiable,
    coverage,
    satisfiable_coverage,
)
from .revalidation import IncrementalRevalidator, RevalidationReport

__all__ = [
    "AdaptiveGigaflowCache",
    "CacheInvariantError",
    "CoverageStateLimitError",
    "ModeGovernor",
    "ChainReport",
    "GigaflowCache",
    "chain_report",
    "validate_cache",
    "IncrementalRevalidator",
    "InstallOutcome",
    "LtmRule",
    "LtmTable",
    "Partition",
    "Partitioner",
    "RandomPartitioner",
    "RevalidationReport",
    "TAG_DONE",
    "chain_satisfiable",
    "build_ltm_rule",
    "build_ltm_rules",
    "coverage",
    "satisfiable_coverage",
    "disjoint_boundaries",
    "disjoint_partition",
    "megaflow_partition",
    "one_to_one_partition",
    "partition_score",
    "segment_score",
]
