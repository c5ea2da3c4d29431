"""End-to-end vSwitch simulator: SmartNIC cache in front of the slow path.

Replays a packet trace against a caching system (Megaflow or Gigaflow).
Hits are served by the modelled SmartNIC; misses run the real multi-table
pipeline, charge slow-path CPU, and install cache rules — exactly the
Fig. 5a workflow, held once in :class:`PacketKernel`.  Produces
:class:`~repro.sim.results.SimResult` records from which every
end-to-end figure (8, 9, 10, 12, 13, 18) is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from ..cache.base import FlowCache
from ..cache.hierarchy import CacheHierarchy
from ..cache.megaflow import MegaflowCache
from ..core.gigaflow import GigaflowCache
from ..core.partition import Partitioner, disjoint_partition
from ..flow.packet import Packet
from ..metrics.cpu import CpuBreakdown
from ..metrics.latency import (
    LatencyModel,
    partition_us,
    pipeline_us,
    rulegen_us,
)
from ..obs.telemetry import Telemetry
from ..obs.trace import EV_FASTPATH_INVALIDATE, EV_FASTPATH_REPLAY
from ..pipeline.pipeline import Pipeline
from ..pipeline.traversal import Disposition, Traversal
from ..workload.pipebench import Trace
from .batch import column_pairs
from .fastpath import FastPathIndex
from .results import SimResult, TimeSeries

_INF = float("inf")


@dataclass(slots=True)
class InstallCost:
    """Slow-path work performed while installing one traversal.

    ``k_tables`` is the cache-table count the traversal was partitioned
    over (the DP's second dimension), 0 for a system that does not
    partition.
    """

    rules_generated: int = 0
    rules_installed: int = 0
    k_tables: int = 0


class CachingSystem:
    """Adapter pairing a cache with its install policy.

    The default :meth:`install` puts one entry per traversal (the
    Megaflow baseline and the OVS hierarchy); Gigaflow overrides it.
    """

    name: str = "system"
    cache: FlowCache

    def install(
        self, traversal: Traversal, generation: int, now: float
    ) -> InstallCost:
        """Install cache state for a freshly-traced traversal."""
        self.cache.install_traversal(traversal, generation, now)
        return InstallCost(rules_generated=1, rules_installed=1)

    def sharing(self) -> Optional[float]:
        return None


class MegaflowSystem(CachingSystem):
    """The baseline: one wildcard rule per traversal (K=1)."""

    name = "megaflow"

    def __init__(self, capacity: int = 32768):
        self.cache = MegaflowCache(capacity)


class HierarchySystem(CachingSystem):
    """The software-only OVS hierarchy: Microflow → Megaflow (§2.1)."""

    name = "hierarchy"

    def __init__(
        self,
        microflow_capacity: int = 8192,
        megaflow_capacity: int = 32768,
    ):
        self.cache = CacheHierarchy(microflow_capacity, megaflow_capacity)


class GigaflowSystem(CachingSystem):
    """The paper's system: K LTM tables with disjoint partitioning."""

    name = "gigaflow"

    def __init__(
        self,
        num_tables: int = 4,
        table_capacity: int = 8192,
        partitioner: Partitioner = disjoint_partition,
        placement: str = "balanced",
        eviction: str = "lru",
    ):
        self.cache = GigaflowCache(
            num_tables=num_tables,
            table_capacity=table_capacity,
            partitioner=partitioner,
            placement=placement,
            eviction=eviction,
        )

    def install(
        self, traversal: Traversal, generation: int, now: float
    ) -> InstallCost:
        outcome = self.cache.install_traversal(traversal, generation, now)
        rules = outcome.installed + outcome.reused + outcome.rejected
        return InstallCost(
            rules_generated=rules,
            rules_installed=outcome.installed,
            k_tables=len(self.cache.tables),
        )

    def sharing(self) -> float:
        """Cumulative reoccurrence frequency (Fig. 11): how many times the
        average sub-traversal was produced across all installs, counting
        rules already evicted (the live cache may have been drained by
        idle expiry by the end of a run)."""
        insertions = self.cache.stats.insertions
        if not insertions:
            return 0.0
        return 1.0 + self.cache.sharing_events / insertions


class AdaptiveGigaflowSystem(GigaflowSystem):
    """§7's profile-guided Gigaflow: partitions when sharing pays,
    degrades to Megaflow-style single segments when it does not."""

    name = "gigaflow-adaptive"

    def __init__(
        self,
        num_tables: int = 4,
        table_capacity: int = 8192,
        **kwargs,
    ):
        from ..core.adaptive import AdaptiveGigaflowCache

        self.cache = AdaptiveGigaflowCache(
            num_tables=num_tables,
            table_capacity=table_capacity,
            **kwargs,
        )


@dataclass
class SimConfig:
    """Simulation knobs.

    Attributes:
        max_idle: Seconds after which unused cache entries expire (§4.3.2).
            0 disables idle eviction.
        sweep_interval: How often the revalidator's idle sweep runs
            (seconds, positive).
        window: Time-series bucket width (seconds).
        latency: The calibrated latency model for hit/miss mixing.
        fast_path: Memoize repeat-flow cache hits through a
            :class:`~repro.sim.fastpath.FastPathIndex` (metric-faithful:
            every :class:`SimResult` field is identical either way).
        telemetry: Optional :class:`~repro.obs.telemetry.Telemetry` hub.
            When set, the engine attaches it to the caching system,
            emits per-packet metrics/trace events, snapshots cache state
            on the sweep cadence and finalizes the hub's registry at the
            end of the run.  Observation-only: every ``SimResult`` field
            is bit-identical with it on or off.
        churn: Optional control-plane churn, a
            :class:`~repro.sim.churn.ChurnConfig`.  When set, the
            engine applies the schedule's rule mutations to the pipeline
            at their exact simulated times while traffic flows, and runs
            an :class:`~repro.core.revalidation.IncrementalRevalidator`
            tick on the sweep cadence with a per-tick entry budget —
            the runtime is exposed as :attr:`VSwitchSimulator.churn`, whose
            ``digest()`` summarises it.  Deadlines are driven purely by
            packet timestamps, so churn-bearing runs are bit-identical
            however packets reach the kernel — streamed, decoded from
            columns or served in micro-batches
            (``tests/test_serve_differential.py`` pins it).  Unlike
            ``telemetry``, this knob steers the simulation.  Requires a
            Megaflow or Gigaflow cache (no hierarchy support).
    """

    max_idle: float = 0.0
    sweep_interval: float = 5.0
    window: float = 10.0
    latency: LatencyModel = field(default_factory=LatencyModel)
    fast_path: bool = True
    telemetry: Optional[Telemetry] = None
    churn: object = None

    def __post_init__(self) -> None:
        # Every cadence steps by this; at zero or below a deadline
        # loop would never catch up with the packet clock.
        if not self.sweep_interval > 0:  # NaN fails too
            raise ValueError(
                "sweep_interval must be positive, got "
                f"{self.sweep_interval!r}"
            )


class PacketKernel:
    """One run's state and the one copy of the per-packet body.

    The Fig. 5a workflow — probe the SmartNIC cache; on a miss run the
    slow path, partition, install — lives here and nowhere else.
    Drivers only decide where ``(timestamp, flow)`` pairs come from
    and how many arrive per :meth:`run` call:
    :meth:`VSwitchSimulator.run` decodes a trace's columns,
    :meth:`VSwitchSimulator.run_packets` streams packet objects, and
    :meth:`repro.serve.ServingDriver.process` feeds micro-batches.
    Every cadence fires off packet timestamps alone, so how a stream
    is chunked never shows in the :class:`SimResult` or the trace.
    """

    def __init__(
        self, pipeline: Pipeline, system: CachingSystem, config: SimConfig
    ):
        cache = system.cache
        tel = config.telemetry
        if tel is not None:
            tel.attach(cache, system.name)
        # The memo's replay/invalidation *metrics* delta-fold from its
        # own counters (Telemetry.attach_fastpath), so the per-replay
        # hook calls are only routed when tracing wants those events.
        fastpath_tracing = tel is not None and (
            tel.tracer.wants(EV_FASTPATH_REPLAY)
            or tel.tracer.wants(EV_FASTPATH_INVALIDATE)
        )
        # Metrics-only, the memo files the lookup histograms itself
        # (Telemetry._bind_packet_hooks), so no hook runs per packet.
        metrics_only = tel is not None and not tel.tracer.enabled
        fastpath = (
            FastPathIndex(
                cache,
                telemetry=tel if fastpath_tracing else None,
                metrics=tel if metrics_only else None,
            )
            if config.fast_path
            else None
        )
        if tel is not None and fastpath is not None:
            tel.attach_fastpath(fastpath)
        churn = None
        if config.churn is not None:
            from .churn import ChurnConfig, ChurnRuntime

            if not isinstance(config.churn, ChurnConfig):
                raise TypeError(
                    "SimConfig.churn takes a ChurnConfig, got "
                    f"{type(config.churn).__name__}"
                )
            churn = ChurnRuntime(
                config.churn, pipeline, cache, config.sweep_interval
            )
            if tel is not None:
                tel.attach_churn(churn)

        self.pipeline = pipeline
        self.system = system
        self.cache = cache
        self.telemetry = tel
        self.fastpath = fastpath
        self.churn = churn
        self.hit_us = config.latency.hit_us
        self.max_idle = config.max_idle
        self.sweep_interval = config.sweep_interval
        self.cpu = CpuBreakdown()
        self.series = TimeSeries(config.window)
        self.latency_sum = 0.0
        self.miss_cost_sum = 0.0
        self.packet_count = 0
        self.peak_entries = 0
        self.cache_probes = 0
        #: Timestamp of the last packet processed.
        self.now = 0.0
        # A cadence that is off never comes due.  Snapshots ride the
        # sweep cadence but fire even when idle expiry is disabled.
        self.next_sweep = (
            config.sweep_interval if config.max_idle > 0 else _INF
        )
        self.next_snapshot = config.sweep_interval if tel is not None else _INF
        #: Earliest pending sweep / snapshot / churn deadline — the one
        #: float the packet loop compares against.
        self.deadline = self._next_deadline()

    def _next_deadline(self) -> float:
        churn = self.churn
        return min(
            self.next_sweep,
            self.next_snapshot,
            churn.deadline if churn is not None else _INF,
        )

    def advance(self, now: float) -> float:
        """Fire every deadline ``now`` has reached; returns the next one.

        Fixed order: idle sweeps, then snapshots, then churn.  Each
        fires once per elapsed interval at its *scheduled* time, so a
        sparse trace neither slides the schedule nor skips a firing, and
        a timestamp that regresses (segment seams in
        :func:`repro.serve.endless_packets`) fires nothing.
        """
        cache = self.cache
        tel = self.telemetry
        interval = self.sweep_interval
        while now >= self.next_sweep:
            at = self.next_sweep
            if tel is not None:
                # Idle-evict trace events carry the sweep's own time.
                tel.now = at
            evicted = cache.evict_idle(at, self.max_idle)
            if tel is not None:
                tel.on_sweep(at, evicted)
            self.next_sweep = at + interval
        if tel is not None:
            tel.now = now
            while now >= self.next_snapshot:
                tel.sample(cache, self.next_snapshot)
                self.next_snapshot += interval
        churn = self.churn
        if churn is not None:
            while now >= churn.deadline:
                churn.advance(churn.deadline)
        self.deadline = self._next_deadline()
        return self.deadline

    def miss(self, flow, now: float) -> float:
        """Slow path for one missed packet: traverse the pipeline,
        install what it yields, charge the CPU model.  Returns the
        modelled miss latency in µs."""
        tel = self.telemetry
        if tel is not None:
            # Evictions forced by the install stamp their events from it.
            tel.now = now
        self.series.record(now, hit=False)
        pipeline = self.pipeline
        cpu = self.cpu
        groups_before = pipeline.stats.groups_probed
        traversal = pipeline.execute(flow)
        groups = pipeline.stats.groups_probed - groups_before
        lookups = len(traversal)
        cpu.charge_pipeline(lookups, groups)
        miss_us = pipeline_us(lookups, groups)

        if traversal.disposition != Disposition.CONTROLLER:
            cost = self.system.install(traversal, pipeline.generation, now)
            if tel is not None:
                tel.on_install(
                    now, lookups, cost.rules_generated, cost.rules_installed
                )
            k = cost.k_tables
            if k:
                cpu.charge_partition(lookups, k)
                miss_us += partition_us(lookups, k)
            cpu.charge_rulegen(cost.rules_generated, cost.rules_installed)
            miss_us += rulegen_us(cost.rules_generated)
            if cost.rules_installed:
                entries = self.cache.entry_count()
                if entries > self.peak_entries:
                    self.peak_entries = entries

        self.miss_cost_sum += miss_us
        return miss_us

    def run(self, pairs: Iterable[Tuple[float, object]]) -> None:
        """Push ``(timestamp, flow)`` pairs through the cache, in order.

        Every packet is one call: :meth:`FastPathIndex.lookup` (which
        replays a usable memo record in its own body, or runs and
        memoizes the full lookup), or ``cache.lookup`` with the fast
        path off.  Hits are filed into the time series per bucket span,
        not per packet.  Telemetry's ``on_lookup`` runs per packet only
        while tracing or with the fast path off; otherwise the memo
        files the lookup histograms, and its tallies are folded when
        this returns."""
        fastpath = self.fastpath
        lookup = fastpath.lookup if fastpath is not None else self.cache.lookup
        tel = self.telemetry
        tallies = fastpath is not None and fastpath.metrics is not None
        on_lookup = (
            tel.on_lookup if tel is not None and not tallies else None
        )
        advance = self.advance
        miss = self.miss
        # series.record(now, hit=True) without its call or its
        # int(now // window): hits are counted in ``bucket_hits`` while
        # ``now`` stays in the current bucket's span, and filed when it
        # leaves it and at the end.
        series = self.series
        hit_buckets = series._hits
        window = series.window
        bucket, bucket_hits, start, end = 0, 0, 0.0, 0.0
        hit_us = self.hit_us
        deadline = self.deadline
        packet_count = self.packet_count
        cache_probes = self.cache_probes
        latency_sum = self.latency_sum
        now = self.now

        for now, flow in pairs:
            packet_count += 1
            if now >= deadline:
                deadline = advance(now)
            result = lookup(flow, now)
            cache_probes += result.groups_probed
            if on_lookup is not None:
                on_lookup(result, now, flow)
            if result.hit:
                latency_sum += hit_us
                if not start <= now < end:
                    if bucket_hits:
                        hit_buckets[bucket] += bucket_hits
                        bucket_hits = 0
                    bucket = int(now // window)
                    start, end = series.span(bucket)
                bucket_hits += 1
            else:
                latency_sum += miss(flow, now)

        if bucket_hits:
            hit_buckets[bucket] += bucket_hits
        if tallies:
            fastpath.fold_tallies()
        self.packet_count = packet_count
        self.cache_probes = cache_probes
        self.latency_sum = latency_sum
        self.now = now

    def finish(self) -> SimResult:
        """Finalize telemetry and assemble the :class:`SimResult`."""
        system = self.system
        cache = self.cache
        if self.telemetry is not None:
            self.telemetry.finalize(cache, self.now, self.fastpath)

        stats = cache.stats.snapshot()
        misses = stats.misses
        packet_count = self.packet_count
        return SimResult(
            system=system.name,
            stats=stats,
            packets=packet_count,
            entry_count=cache.entry_count(),
            peak_entries=max(self.peak_entries, cache.entry_count()),
            capacity=cache.capacity_total(),
            avg_latency_us=(
                self.latency_sum / packet_count if packet_count else 0.0
            ),
            avg_miss_cost_us=self.miss_cost_sum / misses if misses else 0.0,
            cpu=self.cpu,
            series=self.series,
            sharing=system.sharing(),
            cache_probes=self.cache_probes,
        )


class VSwitchSimulator:
    """Drives packets through cache + slow path, collecting every metric."""

    def __init__(
        self,
        pipeline: Pipeline,
        system: CachingSystem,
        config: Optional[SimConfig] = None,
    ):
        self.pipeline = pipeline
        self.system = system
        self.config = config or SimConfig()
        #: The fast-path memo of the most recent run (None when disabled)
        #: — exposes memo hit/invalidation counters for benchmarking.
        self.fastpath: Optional[FastPathIndex] = None
        #: The churn runtime of the most recent run (None when no
        #: churn is configured) — exposes applied-event counters and
        #: the revalidation backlog.
        self.churn = None

    def kernel(self) -> PacketKernel:
        """Start a run: a fresh :class:`PacketKernel`, its parts
        published as this simulator's most-recent-run attributes."""
        kernel = PacketKernel(self.pipeline, self.system, self.config)
        self.fastpath = kernel.fastpath
        self.churn = kernel.churn
        return kernel

    def run(self, trace: Trace) -> SimResult:
        """Replay a trace straight from its numpy columns."""
        kernel = self.kernel()
        for pairs in column_pairs(trace):
            kernel.run(pairs)
        return kernel.finish()

    def run_packets(self, packets: Iterable[Packet]) -> SimResult:
        """Replay any packet iterable (need not be sorted or sized)."""
        kernel = self.kernel()
        kernel.run((packet.timestamp, packet.flow) for packet in packets)
        return kernel.finish()
