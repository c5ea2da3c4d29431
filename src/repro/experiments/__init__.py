"""One experiment driver per table/figure of the paper's evaluation.

==========  ==============================================================
Driver      Paper result
==========  ==============================================================
table1      Table 1 — pipeline inventory
fig03       Fig. 3 — misses/entries vs K (motivation)
fig04       Fig. 4 — sub-tuple reoccurrence in ClassBench
end_to_end  Figs. 8–13 — hit rate, misses, entries, sharing, latency, CPU
fig14_15    Figs. 14–15 — table-count scaling
table2      Table 2 — rule-space coverage
fig16       Fig. 16 — RND vs DP vs 1-1 partitioning
fig17       Fig. 17 — TSS vs Nuevomatch software search
fig18       Fig. 18 — dynamic workload arrival
sec636      §6.3.6 — hit latency table + revalidation speedup
fig19       Fig. 19 — CPU-core scaling (Appendix A)
ablations   extra design-choice ablations (placement/eviction/tp_src)
==========  ==============================================================
"""

from .common import (
    BENCH_SCALE,
    ExperimentScale,
    LOCALITIES,
    MEDIUM_SCALE,
    PAPER_SCALE,
    PIPELINE_NAMES,
    PairResult,
    SMALL_SCALE,
    SYSTEMS,
    run_all_pairs,
    run_pair,
)
from .table1 import format_table1, table1, table1_matches_paper
from .fig03 import TableSweepPoint, sweep_tables
from .fig04 import TupleSharingResult, tuple_sharing
from .end_to_end import (
    CpuBreakdownRow,
    fig08_hit_rates,
    fig09_misses,
    fig10_entries,
    fig11_sharing,
    fig12_latency,
    fig13_cpu_breakdown,
    format_end_to_end,
)
from .fig14_15 import (
    ScalingPoint,
    entries_by_k,
    misses_by_k,
    sweep_table_counts,
)
from .table2 import CoverageRow, format_table2, table2_coverage
from .fig16 import SchemeResult, compare_partitioners
from .fig17 import SearchConfig, compare_search_algorithms
from .fig18 import DynamicResult, dynamic_workloads
from .sec636 import (
    RevalidationComparison,
    hit_latency_table,
    revalidation_comparison,
)
from .fig19 import CoreScalingPoint, CoreScalingResult, core_scaling
from .ablations import (
    AblationResult,
    adaptive_fallback,
    eviction_ablation,
    placement_ablation,
    tp_src_pathology,
)
from .multiseed import MultiSeedResult, Statistic, replicate_pair
from .baselines import (
    BASELINE_CONFIGS,
    BaselineResult,
    compare_baselines,
)

__all__ = [
    "AblationResult",
    "BENCH_SCALE",
    "BASELINE_CONFIGS",
    "BaselineResult",
    "compare_baselines",
    "CoreScalingPoint",
    "CoreScalingResult",
    "adaptive_fallback",
    "CoverageRow",
    "CpuBreakdownRow",
    "DynamicResult",
    "ExperimentScale",
    "LOCALITIES",
    "MEDIUM_SCALE",
    "MultiSeedResult",
    "Statistic",
    "replicate_pair",
    "PAPER_SCALE",
    "PIPELINE_NAMES",
    "PairResult",
    "RevalidationComparison",
    "SMALL_SCALE",
    "SYSTEMS",
    "ScalingPoint",
    "SchemeResult",
    "SearchConfig",
    "TableSweepPoint",
    "TupleSharingResult",
    "compare_partitioners",
    "compare_search_algorithms",
    "core_scaling",
    "dynamic_workloads",
    "entries_by_k",
    "eviction_ablation",
    "fig08_hit_rates",
    "fig09_misses",
    "fig10_entries",
    "fig11_sharing",
    "fig12_latency",
    "fig13_cpu_breakdown",
    "format_end_to_end",
    "format_table1",
    "format_table2",
    "hit_latency_table",
    "misses_by_k",
    "placement_ablation",
    "revalidation_comparison",
    "run_all_pairs",
    "run_pair",
    "sweep_table_counts",
    "sweep_tables",
    "table1",
    "table1_matches_paper",
    "table2_coverage",
    "tp_src_pathology",
    "tuple_sharing",
]
