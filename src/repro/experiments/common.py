"""Shared experiment infrastructure: scales, runners, result caching.

The paper evaluates at 100K unique flows against a 32K-entry Megaflow
cache and a 4×8K Gigaflow cache (a 3:1 flow:capacity ratio).  Experiments
here are parameterised by :class:`ExperimentScale` so the same drivers run
at CI-friendly sizes (default) or at paper scale; every reported *shape*
(who wins, by what factor, where crossovers fall) is preserved because the
flow:capacity ratio and the workload geometry are.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Optional, Tuple

from ..pipeline.library import get_pipeline_spec
from ..sim.engine import (
    AdaptiveGigaflowSystem,
    CachingSystem,
    GigaflowSystem,
    HierarchySystem,
    MegaflowSystem,
    SimConfig,
    VSwitchSimulator,
)
from ..sim.results import SimResult
from ..workload.caida import TraceProfile
from ..workload.pipebench import PipebenchWorkload, Trace, build_workload

#: Names of the five Table 1 pipelines, in the paper's presentation order.
PIPELINE_NAMES: Tuple[str, ...] = ("OFD", "PSC", "OLS", "ANT", "OTL")

LOCALITIES: Tuple[str, ...] = ("high", "low")

#: Gigaflow table count ``K`` (paper: 4); the K sweeps pass their own
#: ``num_tables`` to :meth:`ExperimentScale.system`.
GF_TABLES = 4

#: The caching systems :meth:`ExperimentScale.system` builds, by name.
SYSTEMS: Tuple[str, ...] = ("gigaflow", "megaflow", "hierarchy", "adaptive")


@dataclass(frozen=True)
class ExperimentScale:
    """What one run is built from: pipeline, workload size, cache size,
    trace profile, seeds.

    Every run — a paper driver's cell, a ``repro bench`` phase, a CLI
    command — gets its workload, trace and caching system from the
    methods below, and from nowhere else: :meth:`workload`,
    :meth:`trace` and :meth:`system` (by name).  :meth:`sim_config` is
    the paper drivers' engine setting and :meth:`run` strings the four
    together; the bench phases and the live commands set the engine
    knobs their runs are about (fast path, telemetry, churn, sweep
    cadence) themselves.  The defaults are :data:`SMALL_SCALE`'s.

    Attributes:
        n_flows: Unique flow classes (paper: 100K).
        cache_capacity: Total cache entries for every system — the
            Megaflow capacity and the summed Gigaflow table capacity
            (paper: 32K, i.e. flows/3.125).  ``None`` means twice the
            flow count (:attr:`capacity`), resolved only when a system
            is built, so a run that resizes its flows resizes its cache.
        mean_flow_size: Mean packets per flow.
        mean_packet_gap: Mean seconds between a flow's packets.
        duration: Seconds over which flows start.
        max_idle: Cache idle-expiry (0 disables).
        seed: Workload seed.
        trace_seed: Trace seed.
        pipeline: Table 1 pipeline name (any case).
        locality: ``"high"`` or ``"low"`` workload reuse locality.
    """

    n_flows: int = 3000
    cache_capacity: Optional[int] = 1000
    mean_flow_size: float = 12.0
    mean_packet_gap: float = 4.0
    duration: float = 60.0
    max_idle: float = 20.0
    seed: int = 7
    trace_seed: int = 1
    pipeline: str = "PSC"
    locality: str = "high"

    def __post_init__(self) -> None:
        positive = {
            "n_flows": self.n_flows,
            "cache_capacity": self.cache_capacity,
            "mean_flow_size": self.mean_flow_size,
            "mean_packet_gap": self.mean_packet_gap,
            "duration": self.duration,
        }
        for name, value in positive.items():
            if value is not None and not value > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not self.max_idle >= 0:
            raise ValueError(
                f"max_idle must be non-negative, got {self.max_idle!r}"
            )

    @property
    def spec(self):
        return get_pipeline_spec(self.pipeline)

    @property
    def capacity(self) -> int:
        """Total cache entries: ``cache_capacity``, or twice the flow
        count (at least 8) — a locality-heavy trace should then be
        cache-limited by idle time, not size."""
        if self.cache_capacity is not None:
            return self.cache_capacity
        return max(self.n_flows * 2, 8)

    @property
    def gf_table_capacity(self) -> int:
        """Entries per Gigaflow table: an even share of :attr:`capacity`,
        at least 2."""
        return max(self.capacity // GF_TABLES, 2)

    def params(self) -> dict:
        """The effective-scale keys every ``repro bench`` report leads
        with."""
        return {
            "pipeline": self.spec.name,
            "locality": self.locality,
            "flows": self.n_flows,
            "capacity": self.capacity,
            "mean_flow_size": self.mean_flow_size,
            "duration": self.duration,
            "seed": self.seed,
        }

    def workload(self, **overrides) -> PipebenchWorkload:
        """A brand-new workload: same scale => identical rule state, and
        no run sees a pipeline another run has touched.  ``overrides``
        are further :class:`~repro.workload.PipebenchConfig` fields."""
        return build_workload(
            self.spec, n_flows=self.n_flows, locality=self.locality,
            seed=self.seed, **overrides,
        )

    def trace_profile(self) -> TraceProfile:
        return TraceProfile(
            mean_flow_size=self.mean_flow_size,
            mean_packet_gap=self.mean_packet_gap,
            duration=self.duration,
        )

    def trace(self, workload: PipebenchWorkload, **kwargs) -> Trace:
        """``workload``'s packet trace at this profile and trace seed;
        ``kwargs`` (``offset``, ``pilots``) go to
        :meth:`~repro.workload.PipebenchWorkload.trace`."""
        return workload.trace(
            profile=self.trace_profile(), seed=self.trace_seed, **kwargs
        )

    def system(self, name: str, **overrides) -> CachingSystem:
        """A fresh caching system ``name`` (one of :data:`SYSTEMS`) of
        :attr:`capacity` entries: one Megaflow table; a Megaflow behind
        a Microflow level a quarter its size (at least 2); or
        :data:`GF_TABLES` Gigaflow tables of :attr:`gf_table_capacity`,
        plain or with the §7 governor.  ``overrides`` go to the
        constructor; a Gigaflow-family one may also replace
        ``num_tables`` or ``table_capacity``."""
        capacity = self.capacity
        if name == "megaflow":
            return MegaflowSystem(capacity=capacity, **overrides)
        if name == "hierarchy":
            return HierarchySystem(
                microflow_capacity=max(capacity // 4, 2),
                megaflow_capacity=capacity,
                **overrides,
            )
        if name not in ("gigaflow", "adaptive"):
            raise ValueError(
                f"unknown caching system {name!r}; expected one of {SYSTEMS}"
            )
        tables = {
            "num_tables": GF_TABLES,
            "table_capacity": self.gf_table_capacity,
            **overrides,
        }
        if name == "adaptive":
            return AdaptiveGigaflowSystem(**tables)
        return GigaflowSystem(**tables)

    def sim_config(self, **overrides) -> SimConfig:
        """The paper drivers' engine setting: idle expiry at
        ``max_idle``, swept twelve times a ``duration`` (at most once a
        second), hit rates bucketed six times a ``duration``;
        ``overrides`` replace :class:`SimConfig` fields."""
        return SimConfig(**{
            "max_idle": self.max_idle,
            "sweep_interval": max(self.duration / 12.0, 1.0),
            "window": self.duration / 6.0,
            **overrides,
        })

    def run(
        self,
        system: CachingSystem,
        workload: Optional[PipebenchWorkload] = None,
        **config,
    ) -> SimResult:
        """Replay :meth:`trace` of ``workload`` (a fresh one by default)
        through ``system`` under :meth:`sim_config` ``(**config)``."""
        if workload is None:
            workload = self.workload()
        simulator = VSwitchSimulator(
            workload.pipeline, system, self.sim_config(**config)
        )
        return simulator.run(self.trace(workload))


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

#: ``repro bench``'s scale, and the one ``stats`` / ``serve`` / ``net``
#: start from: long, dense flows (128 packets a second apart) into a
#: cache twice the flow count, with no idle expiry.
BENCH_SCALE = ExperimentScale(
    n_flows=2000,
    cache_capacity=None,
    mean_flow_size=128.0,
    mean_packet_gap=1.0,
    duration=30.0,
    max_idle=0.0,
    trace_seed=3,
)


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
    cell = replace(scale, pipeline=pipeline_name, locality=locality)
    megaflow = cell.run(cell.system("megaflow"))
    gigaflow = cell.run(cell.system("gigaflow"))
    return PairResult(pipeline_name, locality, megaflow, gigaflow)


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
