"""Ablations beyond the paper's figures — the design choices DESIGN.md
calls out:

* **placement** — balanced vs earliest-fit LTM rule placement;
* **eviction** — LRU vs reject-on-full Gigaflow tables;
* **tp_src pathology** — what happens when ACL tables contain exact
  source-port rules (dependency bits then contaminate every cache entry
  probing the table, collapsing sub-traversal sharing — the OVS megaflow
  pathology §4.2.3's machinery inherits by design).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from .common import ExperimentScale, SMALL_SCALE


@dataclass
class AblationResult:
    variant: str
    hit_rate: float
    misses: int
    peak_entries: int


def placement_ablation(
    pipeline_name: str = "PSC",
    locality: str = "high",
    scale: ExperimentScale = SMALL_SCALE,
) -> Dict[str, AblationResult]:
    """Balanced vs earliest placement of LTM rules."""
    scale = replace(scale, pipeline=pipeline_name, locality=locality)
    out = {}
    for placement in ("balanced", "earliest"):
        result = scale.run(scale.system("gigaflow", placement=placement))
        out[placement] = AblationResult(
            placement, result.hit_rate, result.misses, result.peak_entries
        )
    return out


def eviction_ablation(
    pipeline_name: str = "PSC",
    locality: str = "high",
    scale: ExperimentScale = SMALL_SCALE,
) -> Dict[str, AblationResult]:
    """LRU vs reject-on-full under capacity pressure."""
    scale = replace(scale, pipeline=pipeline_name, locality=locality)
    out = {}
    for eviction in ("lru", "reject"):
        result = scale.run(scale.system("gigaflow", eviction=eviction))
        out[eviction] = AblationResult(
            eviction, result.hit_rate, result.misses, result.peak_entries
        )
    return out


def adaptive_fallback(
    pipeline_name: str = "PSC",
    scale: ExperimentScale = SMALL_SCALE,
) -> Dict[str, Dict[str, AblationResult]]:
    """§7's proposed profile-guided optimisation, evaluated.

    Runs Megaflow, plain Gigaflow and the adaptive variant in both
    localities.  The adaptive cache should match plain Gigaflow when
    sharing is plentiful (high locality — it never leaves DP mode) and
    recover toward Megaflow when it is not (low locality — it detects the
    low sub-traversal reuse and falls back to single-segment entries).
    """
    out: Dict[str, Dict[str, AblationResult]] = {}
    for locality in ("high", "low"):
        cell = replace(scale, pipeline=pipeline_name, locality=locality)
        row: Dict[str, AblationResult] = {}
        for label in ("megaflow", "gigaflow", "adaptive"):
            result = cell.run(cell.system(label))
            row[label] = AblationResult(
                label, result.hit_rate, result.misses, result.peak_entries
            )
        out[locality] = row
    return out


def tp_src_pathology(
    pipeline_name: str = "PSC",
    locality: str = "high",
    scale: ExperimentScale = SMALL_SCALE,
    exact_fraction: float = 0.3,
) -> Dict[str, AblationResult]:
    """Inject exact-``tp_src`` ACL rules and watch sharing collapse.

    ``clean`` uses the default all-wildcard source ports; ``polluted``
    makes ``exact_fraction`` of L4 rules match tp_src exactly, whose
    dependency bits then un-wildcard the (per-flow-unique) source port in
    every entry that probes those tables.
    """
    scale = replace(scale, pipeline=pipeline_name, locality=locality)
    out = {}
    for variant, wildcard in (
        ("clean", 1.0),
        ("polluted", 1.0 - exact_fraction),
    ):
        result = scale.run(
            scale.system("gigaflow"),
            scale.workload(wildcard_tp_src=wildcard),
        )
        out[variant] = AblationResult(
            variant, result.hit_rate, result.misses, result.peak_entries
        )
    return out
