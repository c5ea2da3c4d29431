"""Gigaflow: pipeline-aware sub-traversal caching for modern SmartNICs.

A from-scratch Python reproduction of the ASPLOS 2025 paper.  The package
provides:

* ``repro.flow`` — packet/flow substrate (fields, keys, wildcards, actions);
* ``repro.classify`` — the TSS classifier and its prefix index;
* ``repro.pipeline`` — the programmable vSwitch slow path and the five
  real-world pipeline specs of Table 1;
* ``repro.cache`` — Microflow and Megaflow baselines;
* ``repro.core`` — the contribution: LTM tables, disjoint partitioning,
  the Gigaflow cache, coverage counting, revalidation;
* ``repro.workload`` — ClassBench/CAIDA-style generators and Pipebench;
* ``repro.sim`` — the end-to-end simulator;
* ``repro.experiments`` — one driver per table/figure in the evaluation
  (and Fig. 17's NuevoMatch-style classifier).

Quickstart::

    from repro import build_workload, PSC, GigaflowSystem, MegaflowSystem
    from repro.sim import VSwitchSimulator

    workload = build_workload(PSC, n_flows=5000, locality="high", seed=7)
    trace = workload.trace(seed=1)
    sim = VSwitchSimulator(workload.pipeline, GigaflowSystem())
    print(sim.run(trace).summary())
"""

from .flow import (
    ActionList,
    Controller,
    Drop,
    DEFAULT_SCHEMA,
    FieldSchema,
    FlowKey,
    Output,
    Packet,
    SetField,
    TernaryMatch,
    Wildcard,
    ip,
    prefix_mask,
)
from .pipeline import (
    ANT,
    OFD,
    OLS,
    OTL,
    PIPELINES,
    PSC,
    Pipeline,
    PipelineRule,
    PipelineSpec,
    PipelineTable,
    SubTraversal,
    TABLE1_EXPECTED,
    Traversal,
    get_pipeline_spec,
)
from .cache import CacheHierarchy, MegaflowCache, MicroflowCache
from .core import (
    AdaptiveGigaflowCache,
    GigaflowCache,
    IncrementalRevalidator,
    LtmRule,
    LtmTable,
    TAG_DONE,
    chain_report,
    coverage,
    disjoint_partition,
    one_to_one_partition,
    RandomPartitioner,
    validate_cache,
)
from .metrics import LatencyModel
from .workload import (
    Pipebench,
    PipebenchConfig,
    PipebenchWorkload,
    build_workload,
    generate_ruleset,
    profile_workload,
)
from .sim import (
    AdaptiveGigaflowSystem,
    GigaflowSystem,
    MegaflowSystem,
    SimConfig,
    SimResult,
    VSwitchSimulator,
)

__version__ = "1.0.0"

__all__ = [
    "ANT",
    "ActionList",
    "AdaptiveGigaflowCache",
    "AdaptiveGigaflowSystem",
    "CacheHierarchy",
    "Controller",
    "DEFAULT_SCHEMA",
    "Drop",
    "FieldSchema",
    "FlowKey",
    "GigaflowCache",
    "GigaflowSystem",
    "IncrementalRevalidator",
    "LatencyModel",
    "LtmRule",
    "LtmTable",
    "MegaflowCache",
    "MegaflowSystem",
    "MicroflowCache",
    "OFD",
    "OLS",
    "OTL",
    "Output",
    "PIPELINES",
    "PSC",
    "Packet",
    "Pipebench",
    "PipebenchConfig",
    "PipebenchWorkload",
    "Pipeline",
    "PipelineRule",
    "PipelineSpec",
    "PipelineTable",
    "RandomPartitioner",
    "SetField",
    "SimConfig",
    "SimResult",
    "SubTraversal",
    "TABLE1_EXPECTED",
    "TAG_DONE",
    "TernaryMatch",
    "Traversal",
    "VSwitchSimulator",
    "Wildcard",
    "build_workload",
    "chain_report",
    "coverage",
    "disjoint_partition",
    "generate_ruleset",
    "get_pipeline_spec",
    "ip",
    "one_to_one_partition",
    "prefix_mask",
    "profile_workload",
    "validate_cache",
]
