"""Multi-switch fabric simulation: one cache per hop, one controller.

The classic engine models a *single* vSwitch.  A real deployment is a
fabric: a packet enters at a leaf, crosses one or more aggregation
switches, and exits at another leaf — and **every hop runs its own
Gigaflow cache** over its own pipeline.  This module lifts the existing
machinery to that layout without forking any of it:

* each switch is one :class:`~repro.serve.ServingDriver` (it feeds
  the same packet kernel the offline engine drives, and micro-batch
  size never shows in a result, so per-switch buffering is free of
  result-skew), with its own pipeline instance and caching system;
* the :class:`FabricController` plays the SDN controller: it owns the
  flow → (ingress, egress) endpoint map, computes deterministic
  ECMP-spread shortest paths, and reacts to link failures by rerouting
  future path computations.  Rule installation stays *reactive*, as in
  the single-switch model: each hop's cache miss runs that hop's slow
  path and installs that hop's rules — the fabric-wide analogue of the
  paper's miss-driven install, and the property that makes per-switch
  micro-batching causally safe (no hop depends on another hop's
  install having happened first);
* each switch is one part of a :class:`~repro.sim.fanout.FanOut`, as
  each shard of the sharded engine is: the same per-part context,
  telemetry hub, failure naming and merge (per-switch peaks recorded in
  ``peak_entries_per_shard``);
* control-plane churn (:class:`~repro.sim.churn.ChurnConfig`) can
  target a subset of switches via ``ChurnConfig.switches`` — a
  re-route/ACL push hits the named switches' pipelines mid-run while
  the rest of the fabric keeps its cached sub-traversals;
* with tracing enabled, every hop emits an ``EV_HOP`` event labelled
  with the switch's cache name, so ``repro trace`` attributes chain
  depth and probe cost by switch.

**Golden contract:** a one-switch topology runs the same loop as any
other, and that loop is the classic engine — one part keeps the
caller's telemetry hub, its system keeps its plain name and no hop
events are emitted, so the run is bit-identical to
:class:`~repro.sim.engine.VSwitchSimulator` on the same trace
(``tests/test_net.py`` pins it, the same way one shard pins the
sharded driver).

Simulated time only: hop traversal is instantaneous (no propagation
delay), and every per-switch cadence — idle sweeps, snapshots, churn
deadlines — fires off packet timestamps, exactly as in the single
switch loops.  ``tests/test_wallclock_audit.py`` enforces that no
wall-clock call ever enters this module.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.trace import EV_HOP, flow_id
from ..serve import ServeConfig, ServingDriver, stream_trace
from ..sim.engine import CachingSystem, SimConfig
from ..sim.fanout import FanOut, PartContext, merge_results
from ..sim.results import SimResult
from .topology import Link, Topology, link_key

__all__ = [
    "FabricController",
    "FabricResult",
    "FabricSimulator",
]


class FabricController:
    """Central controller: endpoint map, paths, link-failure rerouting.

    Args:
        topology: The switch graph.
        endpoints: ``{flow_id: (ingress switch, egress switch)}`` — the
            flow's attachment points (see
            :func:`repro.workload.fabric.build_fabric_endpoints` for
            the locality-skewed builder).  Flows not in the map default
            to ``default_endpoints`` when given, else raise on first
            lookup.
        default_endpoints: Optional fallback ``(ingress, egress)``.

    Paths are memoized per flow id and recomputed lazily after
    :meth:`fail_link`/:meth:`restore_link` invalidate the affected
    entries; :attr:`reroutes` counts memoized paths dropped by
    failures — the fabric-level churn signal.
    """

    def __init__(
        self,
        topology: Topology,
        endpoints: Optional[Mapping[int, Tuple[str, str]]] = None,
        default_endpoints: Optional[Tuple[str, str]] = None,
    ):
        self.topology = topology
        self.endpoints: Dict[int, Tuple[str, str]] = dict(endpoints or {})
        for flow_id, (src, dst) in self.endpoints.items():
            if src not in topology or dst not in topology:
                raise ValueError(
                    f"flow {flow_id}: endpoints ({src!r}, {dst!r}) "
                    f"name unknown switches"
                )
        if default_endpoints is not None:
            src, dst = default_endpoints
            if src not in topology or dst not in topology:
                raise ValueError(
                    f"default endpoints ({src!r}, {dst!r}) name "
                    f"unknown switches"
                )
        self.default_endpoints = default_endpoints
        self._paths: Dict[int, Tuple[str, ...]] = {}
        self._down: set = set()
        #: Distinct flow paths computed (memo misses).
        self.paths_computed = 0
        #: Memoized paths invalidated by link failures/restores.
        self.reroutes = 0

    def endpoints_for(self, flow_id: int) -> Tuple[str, str]:
        pair = self.endpoints.get(flow_id)
        if pair is None:
            if self.default_endpoints is None:
                raise KeyError(
                    f"flow {flow_id} has no endpoints and no default is set"
                )
            pair = self.default_endpoints
        return pair

    def path_for(self, flow_id: int) -> Tuple[str, ...]:
        """The flow's switch path (memoized; ECMP-spread by flow id)."""
        path = self._paths.get(flow_id)
        if path is None:
            src, dst = self.endpoints_for(flow_id)
            path = self.topology.shortest_path(
                src, dst, flow_id=flow_id, down=frozenset(self._down)
            )
            self._paths[flow_id] = path
            self.paths_computed += 1
        return path

    def _invalidate_crossing(self, key: Link) -> None:
        stale = [
            flow_id
            for flow_id, path in self._paths.items()
            if any(
                link_key(path[i], path[i + 1]) == key
                for i in range(len(path) - 1)
            )
        ]
        for flow_id in stale:
            del self._paths[flow_id]
        self.reroutes += len(stale)

    def fail_link(self, a: str, b: str) -> None:
        """Take a link down; flows routed across it recompute lazily."""
        key = link_key(a, b)
        if key not in {link_key(x, y) for x, y in self.topology.links}:
            raise ValueError(f"({a!r}, {b!r}) is not a topology link")
        if key in self._down:
            return
        self._down.add(key)
        self._invalidate_crossing(key)

    def restore_link(self, a: str, b: str) -> None:
        """Bring a link back; every memoized path recomputes lazily
        (restored capacity re-balances ECMP choices fabric-wide)."""
        key = link_key(a, b)
        if key not in self._down:
            return
        self._down.discard(key)
        self.reroutes += len(self._paths)
        self._paths.clear()


@dataclass
class FabricResult:
    """Everything one fabric run produced.

    Attributes:
        merged: The fabric-wide :class:`~repro.sim.results.SimResult` —
            per-switch results folded by
            :func:`~repro.sim.fanout.merge_results`, so ``packets``
            counts *hop traversals* (one packet crossing three switches
            is three lookups) and ``peak_entries`` is the
            explicitly-bounded sum of per-switch peaks
            (``peak_entries_per_shard`` keeps the exact per-switch
            values, in :attr:`switch order <switches>`).
        switch_results: Per-switch results keyed by switch name, each
            carrying the switch-qualified system name
            (``gigaflow@leaf0``) when the fabric has more than one
            switch.
        registry: Merged per-switch metrics registry (``None`` without
            telemetry).
        topology: The topology the run used.
        packets: Packets fed into the fabric (trace length, *not* hop
            traversals).
        hops_total: Total hop traversals (``== merged.packets``).
        reroutes: Paths invalidated by link failures during the run.
    """

    merged: SimResult
    switch_results: Dict[str, SimResult]
    registry: Optional[MetricsRegistry]
    topology: Topology
    packets: int
    hops_total: int
    reroutes: int = 0
    path_length_counts: Dict[int, int] = field(default_factory=dict)

    @property
    def switches(self) -> Tuple[str, ...]:
        return self.topology.switches

    def by_role(self, role: str) -> Optional[SimResult]:
        """Merged result over the switches carrying ``role``."""
        results = [
            self.switch_results[name]
            for name in self.topology.by_role(role)
            if name in self.switch_results
        ]
        return merge_results(results) if results else None

    def hit_rate_by_role(self) -> Dict[str, float]:
        """Aggregate hit rate per role — the spine-vs-leaf headline."""
        out: Dict[str, float] = {}
        for name in self.switches:
            role = self.topology.role(name)
            out.setdefault(role, None)
        for role in list(out):
            merged = self.by_role(role)
            out[role] = merged.hit_rate if merged is not None else 0.0
        return out

    def digest(self) -> dict:
        """The JSON-ready account of the run — ``repro net --format
        json`` prints it and ``repro bench --net`` reports it.  Hit
        rates are rounded to 6 places; the merged peak is named as the
        bound it is, the exact per-switch peaks ride alongside."""
        merged = self.merged
        per_switch = [
            (name, self.switch_results[name]) for name in self.switches
        ]
        return {
            "topology": self.topology.name,
            "packets": self.packets,
            "hops_total": self.hops_total,
            "path_length_counts": {
                str(k): v for k, v in sorted(self.path_length_counts.items())
            },
            "reroutes": self.reroutes,
            "hit_rate_by_role": {
                role: round(rate, 6)
                for role, rate in self.hit_rate_by_role().items()
            },
            "fabric_hit_rate": round(merged.hit_rate, 6),
            "peak_entries_upper_bound": merged.peak_entries,
            "peak_entries_exact": merged.peak_entries_exact,
            "peak_entries_per_switch": {
                name: result.peak_entries for name, result in per_switch
            },
            "switches": {
                name: {
                    "role": self.topology.role(name),
                    "packets": result.packets,
                    "hit_rate": round(result.hit_rate, 6),
                    "misses": result.misses,
                    "evictions": result.stats.evictions,
                    "peak_entries": result.peak_entries,
                }
                for name, result in per_switch
            },
        }


class FabricSimulator:
    """Drives one trace through N per-switch serving drivers.

    Args:
        topology: The switch graph.
        pipeline_factory: ``Callable[[PartContext], Pipeline]`` —
            called once per switch to build that switch's *private*
            pipeline instance (churn mutates pipelines per switch, so
            they must not be shared).  Building the same workload with
            the same seed per switch yields identical rule state.
        system_factory: ``Callable[[PartContext], CachingSystem]`` —
            that switch's private caching system.  The bench sizes
            leaves and spines identically so hit-rate differences
            measure *pressure*.
        controller: The :class:`FabricController`; ``None`` builds a
            degenerate all-flows-on-first-switch controller, valid only
            for one-switch topologies.
        config: Shared :class:`~repro.sim.engine.SimConfig`.
            ``telemetry`` acts as the opt-in template (as in the
            sharded engine): with more than one switch each gets
            ``telemetry.derive(<switch>)``, a fresh hub mirroring the
            template's tracer settings, with a path-opened sink fanned
            out to ``<path>.<switch>`` files (opened exclusively — a
            stale file from an earlier run fails loudly rather than
            being silently mixed in).  ``churn`` applies to every
            switch, or only to ``ChurnConfig.switches`` when set.
        batch_size: Per-switch micro-batch size (results are
            bit-identical at any size — the serving-loop contract).
        link_failures: Optional ``[(time, a, b), ...]`` — at each
            simulated time the link goes down and affected flows
            reroute (future packets only; per-flow paths are stable
            between failures).
    """

    def __init__(
        self,
        topology: Topology,
        pipeline_factory: Callable[[PartContext], object],
        system_factory: Callable[[PartContext], CachingSystem],
        controller: Optional[FabricController] = None,
        config: Optional[SimConfig] = None,
        batch_size: int = 256,
        link_failures: Optional[List[Tuple[float, str, str]]] = None,
    ):
        self.topology = topology
        self.pipeline_factory = pipeline_factory
        self.system_factory = system_factory
        if controller is None:
            if len(topology) != 1:
                raise ValueError(
                    "a multi-switch fabric needs a FabricController "
                    "with a flow endpoint map"
                )
            controller = FabricController(
                topology,
                default_endpoints=(
                    topology.switches[0], topology.switches[0]
                ),
            )
        self.controller = controller
        self.config = config or SimConfig()
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = batch_size
        self.link_failures = sorted(link_failures or [])
        for at, a, b in self.link_failures:
            if b not in topology.adjacency.get(a, ()):
                raise ValueError(
                    f"link_failures: ({a!r}, {b!r}) at t={at} is not a "
                    "topology link"
                )
        #: Per-switch serving drivers of the most recent run.
        self.drivers: Dict[str, ServingDriver] = {}

    def _churn_for(self, switch: str):
        """The run's churn if it targets ``switch``, else ``None``."""
        churn = self.config.churn
        if churn is not None:
            targets = churn.switches
            if targets is not None and switch not in targets:
                return None
        return churn

    # -- the fabric loop --------------------------------------------------------

    def run(self, trace) -> FabricResult:
        """Replay a trace (or packet iterable) across the fabric."""
        packets = (
            stream_trace(trace) if hasattr(trace, "columns") else iter(trace)
        )
        topology = self.topology
        controller = self.controller
        fan = FanOut(topology.switches, self.config)
        # One switch is the classic engine: its system keeps its plain
        # name and its hub — the caller's own — sees no hop events.
        multi = len(topology) > 1
        parts = {}
        drivers: Dict[str, ServingDriver] = {}
        buffers: Dict[str, list] = {}
        hop_tracers: Dict[str, tuple] = {}
        # Closes the derived hubs with the results, or with the exception.
        with ExitStack() as hubs:
            for context in fan.contexts:
                switch = context.name
                with fan.guard(switch):
                    part = hubs.enter_context(
                        fan.part(context, churn=self._churn_for(switch))
                    )
                    system = self.system_factory(context)
                    if multi:
                        # Attributable telemetry labels, trace cache codes
                        # and results; the merge strips the qualifier.
                        system.name = f"{type(system).name}@{switch}"
                    driver = ServingDriver(
                        self.pipeline_factory(context),
                        system,
                        part.config,
                        ServeConfig(batch_size=self.batch_size),
                    )
                    driver.start()
                parts[switch] = part
                drivers[switch] = driver
                buffers[switch] = []
                tel = part.telemetry
                if multi and tel is not None and tel.tracer.wants(EV_HOP):
                    hop_tracers[switch] = (tel.tracer.emit, system.name)
            self.drivers = drivers

            batch_size = self.batch_size
            failures = list(self.link_failures)
            next_failure = failures[0][0] if failures else float("inf")
            packets_in = 0
            hops_total = 0
            path_length_counts: Dict[int, int] = {}

            for packet in packets:
                now = packet.timestamp
                packets_in += 1
                while now >= next_failure:
                    _t, a, b = failures.pop(0)
                    controller.fail_link(a, b)
                    next_failure = failures[0][0] if failures else float("inf")
                path = controller.path_for(packet.flow_id)
                hops = len(path)
                hops_total += hops
                path_length_counts[hops] = path_length_counts.get(hops, 0) + 1
                for hop, switch in enumerate(path):
                    traced = hop_tracers.get(switch)
                    if traced is not None:
                        emit, cache_name = traced
                        emit(now, EV_HOP, cache_name, flow_id(packet.flow), hop, hops)
                    buf = buffers[switch]
                    buf.append(packet)
                    if len(buf) >= batch_size:
                        with fan.guard(switch):
                            drivers[switch].process(buf)
                        buf.clear()

            for switch, part in parts.items():
                with fan.guard(switch):
                    if buffers[switch]:
                        drivers[switch].process(buffers[switch])
                    result = drivers[switch].finish()
                fan.done(switch, result, part.registry)

        merged, registry = fan.merge()
        return FabricResult(
            merged=merged,
            switch_results=dict(fan.results),
            registry=registry,
            topology=topology,
            packets=packets_in,
            hops_total=hops_total,
            reroutes=controller.reroutes,
            path_length_counts=path_length_counts,
        )
