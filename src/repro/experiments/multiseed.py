"""Multi-seed replication: mean ± deviation for the headline comparison.

Single-seed results can flatter either system; this driver reruns the
Megaflow-vs-Gigaflow comparison across several workload seeds and reports
aggregate statistics, so the benchmark assertions (and EXPERIMENTS.md)
rest on more than one draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from .common import ExperimentScale, SMALL_SCALE, run_pair


@dataclass(frozen=True)
class Statistic:
    """Mean and (population) standard deviation of one metric."""

    mean: float
    std: float
    samples: Tuple[float, ...]

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Statistic":
        if not samples:
            raise ValueError("need at least one sample")
        mean = sum(samples) / len(samples)
        variance = sum((s - mean) ** 2 for s in samples) / len(samples)
        return cls(mean, math.sqrt(variance), tuple(samples))

    def __str__(self) -> str:
        return f"{self.mean:.4f} ± {self.std:.4f}"


@dataclass
class MultiSeedResult:
    """Aggregates over seeds for one (pipeline, locality) cell."""

    pipeline: str
    locality: str
    seeds: Tuple[int, ...]
    megaflow_hit_rate: Statistic
    gigaflow_hit_rate: Statistic
    megaflow_misses: Statistic
    gigaflow_misses: Statistic

    @property
    def hit_rate_gain(self) -> Statistic:
        return Statistic.of([
            g - m
            for m, g in zip(
                self.megaflow_hit_rate.samples,
                self.gigaflow_hit_rate.samples,
            )
        ])


def replicate_pair(
    pipeline_name: str,
    locality: str = "high",
    seeds: Sequence[int] = (7, 11, 23),
    scale: ExperimentScale = SMALL_SCALE,
) -> MultiSeedResult:
    """Run the headline comparison once per seed and aggregate."""
    mf_hits: List[float] = []
    gf_hits: List[float] = []
    mf_misses: List[float] = []
    gf_misses: List[float] = []
    for seed in seeds:
        pair = run_pair(pipeline_name, locality, replace(scale, seed=seed))
        mf, gf = pair.megaflow, pair.gigaflow
        mf_hits.append(mf.hit_rate)
        gf_hits.append(gf.hit_rate)
        mf_misses.append(float(mf.misses))
        gf_misses.append(float(gf.misses))
    return MultiSeedResult(
        pipeline=pipeline_name,
        locality=locality,
        seeds=tuple(seeds),
        megaflow_hit_rate=Statistic.of(mf_hits),
        gigaflow_hit_rate=Statistic.of(gf_hits),
        megaflow_misses=Statistic.of(mf_misses),
        gigaflow_misses=Statistic.of(gf_misses),
    )
