"""Pipebench: multi-table rulesets and traffic traces for real pipelines (§6.1).

The paper's evaluation tool generates, for each Table 1 pipeline: (a) a
multi-table ruleset by projecting ClassBench-style 5-tuple rules onto the
tables of randomly chosen traversal templates, and (b) packet traces with
CAIDA flow-size/inter-arrival characteristics in *high*- and *low*-locality
variants (more or fewer opportunities for flows to share sub-traversals).

The generator models a datacenter tenant network:

* **hosts** — (port, MAC, VLAN, IP-in-prefix) tuples acting as sources;
* **services** — (destination prefix, VIP, service port, protocol, router
  MAC) tuples acting at destinations;
* **flows** — unique (host, service/destination) pairs walking one of the
  pipeline's traversal templates.

Each unique flow is a distinct *traversal class* (it needs its own
Megaflow entry) while sharing per-segment state (L2 tables see the host,
ACL/LB tables see the service) — exactly the pipeline-aware locality
structure Gigaflow exploits.  High locality uses Zipf-skewed, smaller
pools; low locality uses uniform, larger pools.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..flow.actions import ActionList, Drop, Output, SetField
from ..flow.fields import DEFAULT_SCHEMA, prefix_mask
from ..flow.key import FlowKey
from ..flow.match import TernaryMatch
from ..flow.wildcard import Wildcard
from ..pipeline.library import PipelineSpec, TableSpec, TraversalTemplate
from ..pipeline.pipeline import Pipeline
from ..pipeline.rule import PipelineRule
from ..pipeline.table import PipelineTable
from ..pipeline.traversal import Disposition, Traversal
from .caida import (
    TraceProfile,
    CAIDA_PROFILE,
    sample_flow_sizes,
    sample_flow_starts,
    sample_packet_sizes,
    sample_packet_times,
)
from .classbench import PrefixPool, make_prefix_pool, _skewed_index

#: Gateway MAC pool (kept small: next-hop rewrite targets are few in
#: practice).
N_ROUTER_MACS = 8
#: Ingress ports hosts sit behind.
N_PORTS = 32
#: VLANs, at least one per traversal template.
N_VLANS = 16

ETH_IPV4 = 0x0800
ETH_ARP = 0x0806

_IP_PROTO = DEFAULT_SCHEMA.index_of("ip_proto")


@dataclass(frozen=True)
class LocalityProfile:
    """How much sub-traversal sharing the traffic offers.

    Attributes:
        name: ``"high"`` or ``"low"``.
        zipf_a: Pool-sampling skew (None = uniform).
        pool_scale: Multiplier on all pool sizes (bigger pools = less
            sharing).
    """

    name: str
    zipf_a: Optional[float]
    pool_scale: float


HIGH_LOCALITY = LocalityProfile("high", zipf_a=1.25, pool_scale=1.0)
LOW_LOCALITY = LocalityProfile("low", zipf_a=None, pool_scale=6.0)

LOCALITY_PROFILES: Dict[str, LocalityProfile] = {
    "high": HIGH_LOCALITY,
    "low": LOW_LOCALITY,
}


@dataclass(frozen=True)
class Host:
    """A tenant endpoint: consistent L2/L3 identity."""

    port: int
    mac: int
    vlan: int
    ip: int
    prefix: Tuple[int, int]  # (value, prefix_len)


@dataclass(frozen=True)
class Service:
    """A destination service: prefix-scoped policy, exact VIP, L4 port."""

    prefix: Tuple[int, int]
    vip: int
    port: int
    proto: int
    router_mac: int
    vlan: int


@dataclass
class PilotFlow:
    """One unique flow class of the workload.

    Attributes:
        flow: The concrete header values packets of this flow carry.
        template_index: Traversal template the flow was built along.
        traversal: The flow's *true* traversal through the finished
            pipeline (filled in by :meth:`PipebenchWorkload.finalise`).
    """

    flow: FlowKey
    template_index: int
    class_key: Tuple
    traversal: Optional[Traversal] = None

    @property
    def cacheable(self) -> bool:
        return (
            self.traversal is not None
            and self.traversal.disposition != Disposition.CONTROLLER
        )


@dataclass
class PipebenchConfig:
    """Generator knobs; pool sizes default to values scaled off ``n_flows``.

    Attributes:
        n_flows: Unique flow classes to generate (paper scale: 100K).
        locality: ``"high"`` or ``"low"``.
        seed: Master RNG seed.
        n_src_hosts / n_services / n_dst_hosts: Pool sizes before locality
            scaling (None = derive from ``n_flows``).
        wildcard_tp_src: Fraction of L4 rules that wildcard the source
            port.  Defaults to 1.0 (real ACLs almost never pin ephemeral
            source ports); anything below 1.0 injects exact-``tp_src``
            rules whose dependency bits contaminate every megaflow/LTM
            entry that probes the table — a classic OVS pathology worth
            studying via the ablation benches, but not the common case.
    """

    n_flows: int = 10000
    locality: str = "high"
    seed: int = 0
    n_src_hosts: Optional[int] = None
    n_services: Optional[int] = None
    n_dst_hosts: Optional[int] = None
    wildcard_tp_src: float = 1.0

    def resolved(self) -> "PipebenchConfig":
        """Fill derived defaults and apply the locality pool scaling."""
        locality = LOCALITY_PROFILES[self.locality]
        scale = locality.pool_scale
        n = self.n_flows

        def pick(value: Optional[int], default: int) -> int:
            return int((value if value is not None else default) * scale)

        resolved = PipebenchConfig(
            n_flows=self.n_flows,
            locality=self.locality,
            seed=self.seed,
            n_src_hosts=pick(self.n_src_hosts, max(64, n // 12)),
            n_services=pick(self.n_services, max(12, n // 150)),
            n_dst_hosts=pick(self.n_dst_hosts, max(24, n // 60)),
            wildcard_tp_src=self.wildcard_tp_src,
        )
        return resolved


class PipebenchWorkload:
    """A built workload: populated pipeline + unique flow classes."""

    def __init__(
        self,
        spec: PipelineSpec,
        pipeline: Pipeline,
        pilots: List[PilotFlow],
        config: PipebenchConfig,
    ):
        self.spec = spec
        self.pipeline = pipeline
        self.pilots = pilots
        self.config = config

    @property
    def n_flows(self) -> int:
        return len(self.pilots)

    def trace(
        self,
        profile: TraceProfile = CAIDA_PROFILE,
        seed: int = 1,
        offset: float = 0.0,
        pilots: Optional[Sequence[PilotFlow]] = None,
    ) -> "Trace":
        """Generate a packet trace over (a subset of) the flow classes."""
        chosen = list(pilots if pilots is not None else self.pilots)
        return build_trace(chosen, profile, seed=seed, offset=offset)


class Trace:
    """A time-ordered packet stream, stored compactly as numpy arrays."""

    def __init__(
        self,
        pilots: Sequence[PilotFlow],
        times: np.ndarray,
        flow_indices: np.ndarray,
        sizes: np.ndarray,
    ):
        self.pilots = list(pilots)
        self._times = times
        self._flow_indices = flow_indices
        self._sizes = sizes

    def __len__(self) -> int:
        return len(self._times)

    @property
    def duration(self) -> float:
        return float(self._times[-1]) if len(self._times) else 0.0

    def columns(self):
        """The raw columnar storage ``(times, flow_indices, sizes)``.

        Exposed for the columnar decode (:mod:`repro.sim.batch`)
        and the sharded trace splitter — callers must treat the arrays
        as read-only.
        """
        return self._times, self._flow_indices, self._sizes

    def subset(self, mask: np.ndarray) -> "Trace":
        """Row-filtered copy sharing this trace's pilot table.

        ``mask`` is a boolean array over packets; flow indices keep
        their meaning because the pilots list is reused, so per-shard
        traces stay directly comparable with the parent.  Timestamp
        order is preserved (filtering a sorted array keeps it sorted).
        """
        return Trace(
            self.pilots,
            self._times[mask],
            self._flow_indices[mask],
            self._sizes[mask],
        )

    def merged_with(self, other: "Trace") -> "Trace":
        """Interleave two traces by timestamp (Fig. 18's dynamic arrival).

        Flow indices of ``other`` are shifted past this trace's pilots.
        """
        shift = len(self.pilots)
        times = np.concatenate([self._times, other._times])
        indices = np.concatenate(
            [self._flow_indices, other._flow_indices + shift]
        )
        sizes = np.concatenate([self._sizes, other._sizes])
        order = np.argsort(times, kind="stable")
        return Trace(
            self.pilots + other.pilots,
            times[order],
            indices[order],
            sizes[order],
        )


def build_trace(
    pilots: Sequence[PilotFlow],
    profile: TraceProfile = CAIDA_PROFILE,
    seed: int = 1,
    offset: float = 0.0,
) -> Trace:
    """Expand flow classes into a CAIDA-shaped packet stream."""
    rng = np.random.default_rng(seed)
    n = len(pilots)
    if n == 0:
        raise ValueError("cannot build a trace over zero flows")
    flow_sizes = sample_flow_sizes(rng, n, profile)
    starts = sample_flow_starts(rng, n, profile, offset)
    total = int(flow_sizes.sum())
    times = np.empty(total, dtype=np.float64)
    indices = np.empty(total, dtype=np.int64)
    cursor = 0
    for i in range(n):
        count = int(flow_sizes[i])
        times[cursor : cursor + count] = sample_packet_times(
            rng, float(starts[i]), count, profile
        )
        indices[cursor : cursor + count] = i
        cursor += count
    sizes = sample_packet_sizes(rng, total)
    order = np.argsort(times, kind="stable")
    return Trace(pilots, times[order], indices[order], sizes[order])


# =============================================================================
# The generator
# =============================================================================


class Pipebench:
    """Builds a :class:`PipebenchWorkload` for one Table 1 pipeline."""

    def __init__(
        self,
        spec: PipelineSpec,
        config: Optional[PipebenchConfig] = None,
    ):
        self.spec = spec
        self.config = (config or PipebenchConfig()).resolved()
        self.locality = LOCALITY_PROFILES[self.config.locality]
        self._rng = np.random.default_rng(self.config.seed)
        self._rule_index: Dict[Tuple[int, TernaryMatch], PipelineRule] = {}
        self._hosts: List[Host] = []
        self._services: List[Service] = []
        self._dst_hosts: List[Host] = []
        # The table ``Generator.choice(n, p=weights)`` searches for one
        # scalar draw: a pick is one ``rng.random()`` looked up in it,
        # the same draw from the same stream (DESIGN.md §5).
        weights = np.array(
            [t.weight for t in spec.traversals], dtype=np.float64
        )
        weights /= weights.sum()
        self._template_cdf = weights.cumsum()
        self._template_cdf /= self._template_cdf[-1]
        #: Per template: (routed, visits an ARP stage).
        self._template_kinds = tuple(
            (self._template_is_routed(t), self._template_is_arp(t))
            for t in spec.traversals
        )
        self._projections = {
            table.table_id: _Projection.of(table) for table in spec.tables
        }
        self._wildcards: Dict[Tuple, Wildcard] = {}
        self._tp_src_threshold = int(self.config.wildcard_tp_src * 100)
        self._n_vlans = max(N_VLANS, len(spec.traversals))

    # -- public API ---------------------------------------------------------------

    def build(self) -> PipebenchWorkload:
        """Generate pools, rules and pilots; finalise true traversals.

        Pilots accepted early can be shadowed by rules installed for later
        pilots (a higher-priority overlap redirecting them into a dead
        end); the final re-execution drops those rare classes so every
        delivered flow is a well-defined, cacheable traversal class.
        """
        self._build_pools()
        pipeline = self.spec.build()
        pilots = self._build_pilots(pipeline)
        self._finalise(pipeline, pilots)
        pilots = [p for p in pilots if p.cacheable]
        return PipebenchWorkload(self.spec, pipeline, pilots, self.config)

    # -- pools ----------------------------------------------------------------------

    def _build_pools(self) -> None:
        config = self.config
        rng = self._rng
        src_pool = make_prefix_pool(
            rng, max(6, config.n_src_hosts // 40), base_octet=10
        )
        dst_pool = make_prefix_pool(
            rng, max(4, config.n_services // 4), base_octet=192
        )
        self._hosts = [
            self._make_host(rng, src_pool) for _ in range(config.n_src_hosts)
        ]
        self._dst_hosts = [
            self._make_host(rng, src_pool) for _ in range(config.n_dst_hosts)
        ]
        service_ports = (80, 443, 53, 22, 3306, 6379, 8080, 5432, 123,
                         9090, 11211, 8443)
        self._services = []
        for _ in range(config.n_services):
            value, plen = dst_pool.prefixes[
                int(rng.integers(0, len(dst_pool)))
            ]
            host_bits = 32 - plen
            vip = value | int(rng.integers(0, 1 << host_bits)) if host_bits else value
            self._services.append(
                Service(
                    prefix=(value, plen),
                    vip=vip,
                    port=int(rng.choice(service_ports)),
                    proto=int(rng.choice((6, 17), p=(0.8, 0.2))),
                    router_mac=0x02_00_00_00_00_00
                    + int(rng.integers(0, N_ROUTER_MACS)),
                    vlan=1 + int(rng.integers(0, self._n_vlans)),
                )
            )

    def _make_host(self, rng: np.random.Generator, pool: PrefixPool) -> Host:
        value, plen = pool.prefixes[int(rng.integers(0, len(pool)))]
        host_bits = 32 - plen
        ip = value | int(rng.integers(0, 1 << host_bits)) if host_bits else value
        return Host(
            port=1 + int(rng.integers(0, N_PORTS)),
            mac=0x0A_00_00_00_00_00 + int(rng.integers(0, 1 << 24)),
            vlan=1 + int(rng.integers(0, self._n_vlans)),
            ip=ip,
            prefix=(value, plen),
        )

    # -- pilots ---------------------------------------------------------------------

    def _build_pilots(self, pipeline: Pipeline) -> List[PilotFlow]:
        """Sample unique flow classes and build their rule chains.

        A flow class is a unique (source host, destination entity) pair;
        the traversal template is drawn per class, but because the
        pipeline is a deterministic function, rules created by an earlier
        class own any shared match — later classes colliding with them
        simply follow the established behaviour (each destination has one
        policy).  Pilots whose chain dead-ends mid-detour (no matching
        rule at the table they were redirected to) are discarded and
        resampled; a per-template VLAN shift keeps genuinely different
        behaviours distinguishable at L2-only tables, standing in for the
        registers/conntrack state production pipelines use.
        """
        config = self.config
        rng = self._rng
        zipf = self.locality.zipf_a
        cdf = self._template_cdf
        pilots: List[PilotFlow] = []
        seen = set()
        attempts = 0
        max_attempts = config.n_flows * 60
        while len(pilots) < config.n_flows and attempts < max_attempts:
            attempts += 1
            template_index = int(cdf.searchsorted(rng.random(), side="right"))
            template = self.spec.traversals[template_index]
            host = self._hosts[_skewed_index(rng, len(self._hosts), zipf)]
            routed, is_arp = self._template_kinds[template_index]
            if routed:
                service_index = _skewed_index(
                    rng, len(self._services), zipf
                )
                service = self._services[service_index]
                class_key = ("svc", host.mac, host.ip, service_index)
            else:
                service = None
                dst_index = _skewed_index(rng, len(self._dst_hosts), zipf)
                class_key = ("l2", host.mac, host.ip, dst_index)
            if class_key in seen:
                continue
            seen.add(class_key)
            flow, context = self._pilot_flow(host, service, class_key, is_arp)
            pilot = PilotFlow(
                flow=flow,
                template_index=template_index,
                class_key=class_key,
            )
            self._walk(pipeline, flow, template, context)
            # Keep only pilots whose true traversal terminates (forward or
            # drop) — dead-end detours would be permanently uncacheable.
            if pipeline.disposition_of(flow) == Disposition.CONTROLLER:
                continue
            pilots.append(pilot)
        return pilots

    def _template_is_routed(self, template: TraversalTemplate) -> bool:
        """Routed templates traverse a stage that rewrites MACs or
        DNATs — their packets address the gateway, not the peer."""
        for table_id in template.path:
            spec = self.spec.table_spec(table_id)
            if "eth_dst" in spec.rewrites or "ip_dst" in spec.rewrites:
                return True
        return False

    def _template_is_arp(self, template: TraversalTemplate) -> bool:
        return any(
            "arp" in self.spec.table_spec(tid).name for tid in template.path
        )

    def _pilot_flow(
        self,
        host: Host,
        service: Optional[Service],
        class_key: Tuple,
        is_arp: bool,
    ):
        """Concrete headers plus the projection context (prefix lengths)."""
        # CRC32, not ``hash``: the key starts with a str tag, and str
        # hashes are salted per interpreter (DESIGN.md §5, Determinism).
        tp_src = 1024 + zlib.crc32(repr(class_key).encode("ascii")) % 60000
        if service is not None:
            dst_ip = service.vip
            dst_mac = service.router_mac
            dst_plen = service.prefix[1]
            proto = service.proto
            tp_dst = service.port
        else:
            dst = self._dst_hosts[class_key[3]]
            dst_ip = dst.ip
            dst_mac = dst.mac
            dst_plen = dst.prefix[1]
            proto = 6
            tp_dst = 80 if not is_arp else 0
        # The VLAN is a property of the source port.
        vlan = host.vlan
        flow = FlowKey.from_fields(
            {
                "in_port": host.port,
                "eth_src": host.mac,
                "eth_dst": dst_mac,
                "eth_type": ETH_ARP if is_arp else ETH_IPV4,
                "vlan_id": vlan,
                "ip_src": host.ip,
                "ip_dst": dst_ip,
                "ip_proto": proto,
                "tp_src": tp_src,
                "tp_dst": tp_dst,
            }
        )
        context = {
            "src_plen": host.prefix[1],
            "dst_plen": dst_plen,
        }
        return flow, context

    # -- the template walk (ruleset construction) --------------------------------------

    def _walk(
        self,
        pipeline: Pipeline,
        flow: FlowKey,
        template: TraversalTemplate,
        context: Dict[str, int],
    ) -> None:
        """Create (or reuse) a consistent rule chain for one pilot.

        While the walk agrees with the template it creates rules along it;
        once a reused rule detours (its next table differs), the walk just
        follows existing rules — the pipeline stays a deterministic
        function and re-execution later records the true traversal.
        """
        path = template.path
        current = flow
        pos = 0
        guided = True
        tid: Optional[int] = path[0]
        depth = 0
        while tid is not None and depth < pipeline.max_depth:
            depth += 1
            table = pipeline.table(tid)
            if guided and pos < len(path) and path[pos] == tid:
                is_last = pos == len(path) - 1
                wanted_next = None if is_last else path[pos + 1]
                rule = self._get_or_create_rule(
                    pipeline, table, current, wanted_next, is_last,
                    template, context,
                )
                pos += 1
                if rule.next_table != wanted_next:
                    guided = False
            else:
                guided = False
                rule = table.lookup(current).rule
                if rule is None:
                    return  # dead end; pilot will punt on execution
            current = rule.actions.apply(current)
            tid = rule.next_table

    def _get_or_create_rule(
        self,
        pipeline: Pipeline,
        table: PipelineTable,
        current: FlowKey,
        next_table: Optional[int],
        is_last: bool,
        template: TraversalTemplate,
        context: Dict[str, int],
    ) -> PipelineRule:
        match = self._project(table, current, context)
        key = (table.table_id, match)
        existing = self._rule_index.get(key)
        if existing is not None:
            return existing
        actions = self._rule_actions(
            table, current, match, is_last, template
        )
        rule = PipelineRule(
            match=match,
            priority=1 + match.specificity(),
            actions=actions,
            next_table=next_table if not is_last else None,
        )
        pipeline.install(table.table_id, rule)
        self._rule_index[key] = rule
        return rule

    def _project(
        self,
        table: PipelineTable,
        current: FlowKey,
        context: Dict[str, int],
    ) -> TernaryMatch:
        """Project the current flow onto a table's declared fields with
        realistic, deterministic masks (same flow values → same rule).

        The masks depend on the flow only through the two prefix lengths
        and three drop decisions, so each wildcard is built once per
        table and shared by every rule projected onto it."""
        table_id = table.table_id
        projection = self._projections[table_id]
        values = current.values
        decision = abs(
            hash((table_id, tuple([values[i] for i in projection.indices])))
        ) % 100
        key = (
            table_id,
            context["src_plen"],
            context["dst_plen"],
            projection.acl and decision < 30,
            decision < self._tp_src_threshold,
            values[_IP_PROTO] == 1,
        )
        wildcard = self._wildcards.get(key)
        if wildcard is None:
            wildcard = self._wildcards[key] = projection.wildcard(*key[1:])
        return TernaryMatch(current, wildcard)

    def _rule_actions(
        self,
        table: PipelineTable,
        current: FlowKey,
        match: TernaryMatch,
        is_last: bool,
        template: TraversalTemplate,
    ) -> ActionList:
        spec = self.spec.table_spec(table.table_id)
        decision = abs(hash((table.table_id, match.canonical_key)))
        actions: List = []
        if not is_last and spec.rewrites:
            for field_name in spec.rewrites:
                if field_name in ("eth_src", "eth_dst"):
                    mac = 0x02_00_00_00_10_00 + (
                        decision % N_ROUTER_MACS
                    )
                    actions.append(SetField(field_name, mac))
                elif field_name == "ip_dst":
                    # DNAT to a backend inside the service prefix.
                    backend = (current.get("ip_dst") & prefix_mask(24)) | (
                        decision % 200
                    )
                    actions.append(SetField(field_name, backend))
                elif field_name == "ip_src":
                    snat = (10 << 24) | (decision % 256)
                    actions.append(SetField(field_name, snat))
                elif field_name == "vlan_id":
                    actions.append(
                        SetField(field_name, 1 + decision % self._n_vlans)
                    )
                elif field_name == "tp_dst":
                    actions.append(SetField(field_name, 8000 + decision % 100))
        if is_last:
            if template.disposition == "drop":
                actions.append(Drop())
            else:
                actions.append(Output(100 + decision % 64))
        return ActionList(actions)

    # -- finalisation --------------------------------------------------------------------

    def _finalise(
        self, pipeline: Pipeline, pilots: List[PilotFlow]
    ) -> None:
        """Record each pilot's true traversal through the finished rules."""
        for pilot in pilots:
            pilot.traversal = pipeline.execute(
                pilot.flow, record_stats=False
            )


@dataclass(frozen=True)
class _Projection:
    """What :meth:`Pipebench._project` needs of one table, worked out
    once: where its match fields sit in a flow's values and which of
    the name markers its masks depend on."""

    fields: Tuple[str, ...]
    indices: Tuple[int, ...]
    host_exact_ip: bool
    vip_exact: bool
    acl: bool

    @classmethod
    def of(cls, table: TableSpec) -> "_Projection":
        name = table.name
        return cls(
            fields=tuple(table.fields),
            indices=tuple(DEFAULT_SCHEMA.index_of(f) for f in table.fields),
            host_exact_ip=any(
                marker in name for marker in ("port_sec", "spoof", "fdb")
            ),
            vip_exact=any(
                marker in name
                for marker in ("lb", "dnat", "hairpin", "affinity", "arp")
            ),
            acl="acl" in name,
        )

    def wildcard(
        self,
        src_plen: int,
        dst_plen: int,
        drop_ip_src: bool,
        drop_tp_src: bool,
        drop_tp_dst: bool,
    ) -> Wildcard:
        masks: Dict[str, int] = {}
        for field_name in self.fields:
            if field_name == "ip_src":
                if self.host_exact_ip:
                    masks[field_name] = prefix_mask(32)
                elif drop_ip_src:
                    continue  # this ACL rule wildcards the source prefix
                else:
                    masks[field_name] = prefix_mask(src_plen)
            elif field_name == "ip_dst":
                if self.host_exact_ip or self.vip_exact:
                    masks[field_name] = prefix_mask(32)
                else:
                    masks[field_name] = prefix_mask(dst_plen)
            elif field_name == "tp_src":
                if drop_tp_src:
                    continue  # wildcarded
                masks[field_name] = prefix_mask(16, 16)
            elif field_name == "tp_dst":
                if drop_tp_dst:
                    continue  # ICMP carries no port
                masks[field_name] = prefix_mask(16, 16)
            else:
                masks[field_name] = DEFAULT_SCHEMA.field(field_name).full_mask
        return Wildcard.from_fields(masks)


def build_workload(
    spec: PipelineSpec,
    n_flows: int = 10000,
    locality: str = "high",
    seed: int = 0,
    **overrides,
) -> PipebenchWorkload:
    """One-shot convenience wrapper around :class:`Pipebench`."""
    config = PipebenchConfig(
        n_flows=n_flows, locality=locality, seed=seed, **overrides
    )
    return Pipebench(spec, config).build()
