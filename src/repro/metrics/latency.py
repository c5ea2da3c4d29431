"""Latency model calibrated to the paper's testbed measurements.

We are a behavioural simulator: wall-clock latency is *modelled*, not
measured.  The constants below are the paper's own measured per-packet
latencies (§6.3.6) and slow-path overheads (§6.2.2, Fig. 13); end-to-end
average latency is the hit-rate-weighted mixture of a hardware/software
hit and a slow-path miss, which is how the paper's Fig. 12 and Fig. 17
numbers arise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: §6.3.6 — measured cache-hit latencies per backend (microseconds).
HIT_LATENCY_US: Dict[str, float] = {
    "fpga_offload": 8.62,       # OVS/Gigaflow-Offload & OVS/Megaflow-Offload
    "dpdk_host": 12.61,         # OVS/DPDK on host CPU
    "dpdk_arm": 51.26,          # OVS/DPDK on BlueField-2 ARM cores
    "kernel_host": 671.48,      # OVS/Kernel on host
    "kernel_arm": 3606.37,      # OVS/Kernel on BlueField-2
}

#: §6.3.6 — reported jitter (one standard deviation, microseconds).
HIT_LATENCY_JITTER_US: Dict[str, float] = {
    "fpga_offload": 0.4,
    "dpdk_host": 1.1,
    "dpdk_arm": 9.7,
    "kernel_host": 13.4,
    "kernel_arm": 237.1,
}


#: §6.2.2 / Fig. 13 — slow-path component costs (microseconds), tuned
#: so the modelled totals land in the paper's envelope: a PSC-size
#: traversal costs tens of µs and the largest pipelines with
#: partitioning stay "within 200 µs" (§6.3.1).  Fixed cost of punting a
#: packet to userspace:
UPCALL_US = 20.0
#: Per pipeline table lookup.
US_PER_LOOKUP = 3.0
#: Per TSS mask-group hash probe.
US_PER_GROUP_PROBE = 0.6
#: Per disjoint-partition DP (N × K) cell.
US_PER_DP_CELL = 0.35
#: Per LTM/Megaflow rule constructed.
US_PER_RULE_GEN = 2.5
#: Per cache-table rule install (PCIe write).
US_PER_RULE_INSTALL = 1.5


def pipeline_us(lookups: int, groups_probed: int) -> float:
    """Userspace forwarding-pipeline share (Fig. 13's first bar)."""
    return (
        UPCALL_US
        + US_PER_LOOKUP * lookups
        + US_PER_GROUP_PROBE * groups_probed
    )


def partition_us(traversal_length: int, k_tables: int) -> float:
    """Sub-traversal partitioning share (zero for Megaflow)."""
    return US_PER_DP_CELL * traversal_length * k_tables


def rulegen_us(n_rules: int) -> float:
    """Rule generation + install share."""
    return (US_PER_RULE_GEN + US_PER_RULE_INSTALL) * n_rules


#: Software classifier search costs (§6.3.4, Fig. 17).  TSS costs one hash
#: probe per distinct mask.  NuevoMatch evaluates its (vectorised) models
#: in near-constant time — a fixed inference base plus a tiny per-iSet
#: increment — and hashes only its remainder's masks.  Calibrated so a
#: ~60-mask Megaflow cache searches in a few µs and NuevoMatch trims
#: roughly the paper's ~1 µs off it.
TSS_PROBE_US = 0.05
NM_BASE_US = 1.0
NM_ISET_US = 0.01
NM_REMAINDER_PROBE_US = 0.05


def software_search_us(
    algorithm: str, mask_groups: int = 0, isets: int = 0,
    remainder_groups: int = 0,
) -> float:
    """Per-lookup software cache search cost for Fig. 17's four configs."""
    if algorithm == "tss":
        return TSS_PROBE_US * max(mask_groups, 1)
    if algorithm == "nm":
        return (
            NM_BASE_US
            + NM_ISET_US * max(isets, 1)
            + NM_REMAINDER_PROBE_US * remainder_groups
        )
    raise ValueError(f"unknown search algorithm {algorithm!r}")


@dataclass(frozen=True)
class LatencyModel:
    """End-to-end per-packet latency as a hit/miss mixture.

    The miss side is :func:`pipeline_us` + :func:`partition_us` +
    :func:`rulegen_us`, at the §6.2.2 constants above.

    Attributes:
        backend: Key into :data:`HIT_LATENCY_US` for cache-hit latency.
    """

    backend: str = "fpga_offload"

    @property
    def hit_us(self) -> float:
        try:
            return HIT_LATENCY_US[self.backend]
        except KeyError:
            raise KeyError(
                f"unknown backend {self.backend!r}; "
                f"available: {sorted(HIT_LATENCY_US)}"
            ) from None

    def average_us(self, hit_rate: float, miss_us: float) -> float:
        """Mix a hit latency with a measured average miss cost."""
        if not 0.0 <= hit_rate <= 1.0:
            raise ValueError(f"hit rate out of range: {hit_rate}")
        return hit_rate * self.hit_us + (1.0 - hit_rate) * miss_us
