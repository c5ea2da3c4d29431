"""vSwitch slow-path substrate: tables, pipelines, traversals, Table 1 specs."""

from .rule import PipelineRule
from .table import PipelineTable, TableLookup
from .traversal import (
    Disposition,
    SubTraversal,
    Traversal,
    TraversalStep,
    union_wildcards,
)
from .pipeline import (
    ENTRY_TABLE,
    ExecutionStats,
    Pipeline,
    PipelineLoopError,
)
from .library import (
    ANT,
    OFD,
    OLS,
    OTL,
    PIPELINES,
    PSC,
    PipelineSpec,
    TABLE1_EXPECTED,
    TableSpec,
    TraversalTemplate,
    get_pipeline_spec,
)

__all__ = [
    "ANT",
    "Disposition",
    "ENTRY_TABLE",
    "ExecutionStats",
    "OFD",
    "OLS",
    "OTL",
    "PIPELINES",
    "PSC",
    "Pipeline",
    "PipelineLoopError",
    "PipelineRule",
    "PipelineSpec",
    "PipelineTable",
    "SubTraversal",
    "TABLE1_EXPECTED",
    "TableLookup",
    "TableSpec",
    "Traversal",
    "TraversalStep",
    "TraversalTemplate",
    "get_pipeline_spec",
    "union_wildcards",
]
