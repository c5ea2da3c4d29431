"""Shared experiment infrastructure: scales, runners, result caching.

The paper evaluates at 100K unique flows against a 32K-entry Megaflow
cache and a 4×8K Gigaflow cache (a 3:1 flow:capacity ratio).  Experiments
here are parameterised by :class:`ExperimentScale` so the same drivers run
at CI-friendly sizes (default) or at paper scale; every reported *shape*
(who wins, by what factor, where crossovers fall) is preserved because the
flow:capacity ratio and the workload geometry are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from ..pipeline.library import get_pipeline_spec
from ..sim.engine import (
    GigaflowSystem,
    MegaflowSystem,
    SimConfig,
    VSwitchSimulator,
)
from ..sim.results import SimResult
from ..workload.caida import TraceProfile
from ..workload.pipebench import PipebenchConfig, Pipebench, PipebenchWorkload

#: Names of the five Table 1 pipelines, in the paper's presentation order.
PIPELINE_NAMES: Tuple[str, ...] = ("OFD", "PSC", "OLS", "ANT", "OTL")

LOCALITIES: Tuple[str, ...] = ("high", "low")


@dataclass(frozen=True)
class ExperimentScale:
    """Sizing of one experiment run.

    Attributes:
        n_flows: Unique flow classes (paper: 100K).
        cache_capacity: Total cache entries for *both* systems — the
            Megaflow capacity and the summed Gigaflow table capacity
            (paper: 32K, i.e. flows/3.125).
        gf_tables: Gigaflow table count ``K`` (paper: 4).
        mean_flow_size: Mean packets per flow.
        mean_packet_gap: Mean seconds between a flow's packets.
        duration: Seconds over which flows start.
        max_idle: Cache idle-expiry (0 disables).
        seed: Workload seed.
    """

    n_flows: int = 3000
    cache_capacity: int = 1000
    gf_tables: int = 4
    mean_flow_size: float = 12.0
    mean_packet_gap: float = 4.0
    duration: float = 60.0
    max_idle: float = 20.0
    seed: int = 7

    @property
    def gf_table_capacity(self) -> int:
        return max(1, self.cache_capacity // self.gf_tables)

    def trace_profile(self) -> TraceProfile:
        return TraceProfile(
            mean_flow_size=self.mean_flow_size,
            mean_packet_gap=self.mean_packet_gap,
            duration=self.duration,
        )

    def sim_config(self, window: Optional[float] = None) -> SimConfig:
        return SimConfig(
            max_idle=self.max_idle,
            sweep_interval=max(self.duration / 12.0, 1.0),
            window=window if window is not None else self.duration / 6.0,
        )


#: Default CI-friendly scale (tens of seconds per configuration).  The
#: flow:capacity ratio mirrors the paper's 100K:32K; the absolute size is
#: the smallest at which every pipeline's largest per-table segment family
#: fits its Gigaflow table (below that, rigid placement windows thrash).
SMALL_SCALE = ExperimentScale()

#: A middle scale for benchmark runs: Fig. 8's ten cells take about
#: 70 s on a 2-core box, and Fig. 8's shape does not hold here.
MEDIUM_SCALE = ExperimentScale(n_flows=6000, cache_capacity=2000)

#: The paper's own scale (§6.1), so the harness can be pointed at the
#: real operating point.  Minutes per cell in pure Python: a 30K-flow
#: cell takes about 27 s of CPU for both systems on a 2-core box.
PAPER_SCALE = ExperimentScale(
    n_flows=100_000, cache_capacity=32_768, mean_flow_size=16.0
)


def fresh_workload(
    pipeline_name: str, locality: str, scale: ExperimentScale
) -> PipebenchWorkload:
    """Build a brand-new workload (safe to simulate against)."""
    spec = get_pipeline_spec(pipeline_name)
    config = PipebenchConfig(
        n_flows=scale.n_flows, locality=locality, seed=scale.seed
    )
    return Pipebench(spec, config).build()


def run_system(
    workload: PipebenchWorkload,
    system,
    scale: ExperimentScale,
    trace_seed: int = 1,
    window: Optional[float] = None,
    offset: float = 0.0,
) -> SimResult:
    """Simulate one system over one workload's trace."""
    simulator = VSwitchSimulator(
        workload.pipeline, system, scale.sim_config(window)
    )
    trace = workload.trace(
        profile=scale.trace_profile(), seed=trace_seed, offset=offset
    )
    return simulator.run(trace)


def make_megaflow(scale: ExperimentScale) -> MegaflowSystem:
    return MegaflowSystem(capacity=scale.cache_capacity)


def make_gigaflow(scale: ExperimentScale, **overrides) -> GigaflowSystem:
    kwargs = dict(
        num_tables=scale.gf_tables,
        table_capacity=scale.gf_table_capacity,
    )
    kwargs.update(overrides)
    return GigaflowSystem(**kwargs)


@dataclass
class PairResult:
    """Megaflow vs. Gigaflow over one (pipeline, locality) cell."""

    pipeline: str
    locality: str
    megaflow: SimResult
    gigaflow: SimResult

    @property
    def hit_rate_gain(self) -> float:
        """Absolute hit-rate improvement (Fig. 8's delta)."""
        return self.gigaflow.hit_rate - self.megaflow.hit_rate

    @property
    def miss_reduction(self) -> float:
        """Fractional miss reduction (Fig. 9): 0.9 = "90% fewer misses"."""
        if not self.megaflow.misses:
            return 0.0
        return 1.0 - self.gigaflow.misses / self.megaflow.misses

    @property
    def entry_reduction(self) -> float:
        """Fractional reduction in peak cache entries (Fig. 10)."""
        if not self.megaflow.peak_entries:
            return 0.0
        return 1.0 - self.gigaflow.peak_entries / self.megaflow.peak_entries


@lru_cache(maxsize=64)
def run_pair(
    pipeline_name: str,
    locality: str,
    scale: ExperimentScale,
) -> PairResult:
    """Run the paper's headline comparison for one cell (memoised —
    Figs. 8, 9, 10, 12 and 13 all read the same 10 cells)."""
    mf = run_system(
        fresh_workload(pipeline_name, locality, scale),
        make_megaflow(scale),
        scale,
    )
    gf = run_system(
        fresh_workload(pipeline_name, locality, scale),
        make_gigaflow(scale),
        scale,
    )
    return PairResult(pipeline_name, locality, mf, gf)


def run_all_pairs(
    scale: ExperimentScale,
    localities: Tuple[str, ...] = LOCALITIES,
) -> Dict[Tuple[str, str], PairResult]:
    """All (pipeline × locality) cells of the end-to-end evaluation."""
    return {
        (name, locality): run_pair(name, locality, scale)
        for name in PIPELINE_NAMES
        for locality in localities
    }
