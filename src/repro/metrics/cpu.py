"""CPU-cycle accounting for the vSwitch slow path (Fig. 13, Fig. 19).

The paper breaks slow-path CPU time into three elements: the userspace
forwarding pipeline (incurred by both systems), plus Gigaflow's
sub-traversal partitioning and LTM rule generation.  We count abstract
*cycle units* per component using the same per-operation weights as the
latency model, so breakdown ratios (e.g. "partitioning + rule generation
add 80% on OLS") are directly comparable with Fig. 13.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Cycle weights per elementary operation (arbitrary units; only ratios
#: matter for the reproduced figures).
CYCLES_PER_LOOKUP = 300
CYCLES_PER_GROUP_PROBE = 60
CYCLES_PER_DP_CELL = 35
CYCLES_PER_RULE_GEN = 250
CYCLES_PER_RULE_INSTALL = 150


@dataclass
class CpuBreakdown:
    """Accumulated slow-path cycles split by processing element."""

    pipeline_cycles: int = 0
    partition_cycles: int = 0
    rulegen_cycles: int = 0

    @property
    def overhead_fraction(self) -> float:
        """Partitioning + rule generation as a fraction of the userspace
        pipeline cost — Fig. 13's headline ratio (0 for Megaflow-style
        systems, up to ~0.8 for large pipelines under Gigaflow)."""
        if not self.pipeline_cycles:
            return 0.0
        return (
            self.partition_cycles + self.rulegen_cycles
        ) / self.pipeline_cycles

    def charge_pipeline(self, lookups: int, groups_probed: int) -> None:
        self.pipeline_cycles += (
            CYCLES_PER_LOOKUP * lookups
            + CYCLES_PER_GROUP_PROBE * groups_probed
        )

    def charge_partition(self, traversal_length: int, k_tables: int) -> None:
        self.partition_cycles += (
            CYCLES_PER_DP_CELL * traversal_length * k_tables
        )

    def charge_rulegen(self, rules_generated: int, rules_installed: int) -> None:
        self.rulegen_cycles += (
            CYCLES_PER_RULE_GEN * rules_generated
            + CYCLES_PER_RULE_INSTALL * rules_installed
        )

    def merged_with(self, other: "CpuBreakdown") -> "CpuBreakdown":
        return CpuBreakdown(
            self.pipeline_cycles + other.pipeline_cycles,
            self.partition_cycles + other.partition_cycles,
            self.rulegen_cycles + other.rulegen_cycles,
        )


def per_core_miss_load(total_misses: int, n_cores: int) -> float:
    """Appendix A's RSS model: SmartNIC cache misses are spread across
    slow-path cores by receive-side scaling, so per-core load scales as
    ``1/n``. The *total* load differences between systems (Gigaflow's
    fewer misses) persist at every core count — Fig. 19's message."""
    if n_cores < 1:
        raise ValueError(f"need at least one core, got {n_cores}")
    return total_misses / n_cores
