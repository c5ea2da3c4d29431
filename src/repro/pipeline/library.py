"""The five real-world vSwitch pipelines of Table 1.

Each spec re-encodes a production OVS pipeline with the table count and
unique-traversal count reported in the paper:

========  ==========================================  ======  ==========
Pipeline  Source                                      Tables  Traversals
========  ==========================================  ======  ==========
OFD       OpenFlow Data Plane Abstraction (OF-DPA)        10           5
PSC       PISCES L2L3-ACL                                  7           2
OLS       OVN logical switch                              30          23
ANT       Antrea Kubernetes networking                    22          20
OTL       OpenFlow Table Type Patterns L2L3-ACL            8          11
========  ==========================================  ======  ==========

A spec lists, per table, the header fields the stage matches (the unit of
the paper's disjointness analysis) and which fields its rules may rewrite;
plus the traversal templates — the unique table-ID paths flows can take.
Rules themselves are synthesised by Pipebench (§6.1) from ClassBench-style
5-tuples projected onto each table's fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .pipeline import Pipeline
from .table import PipelineTable


@dataclass(frozen=True)
class TableSpec:
    """Static description of one pipeline stage.

    Attributes:
        table_id: Stage ID (also the LTM tag value for rules starting here).
        name: Stage name from the source pipeline's documentation.
        fields: Header fields the stage matches on.
        rewrites: Fields rules in this stage may overwrite (set-field).
    """

    table_id: int
    name: str
    fields: Tuple[str, ...]
    rewrites: Tuple[str, ...] = ()


@dataclass(frozen=True)
class TraversalTemplate:
    """One unique path through the pipeline.

    Attributes:
        path: Sequence of table IDs, in lookup order.
        disposition: ``"output"`` or ``"drop"`` — how the path terminates.
        weight: Relative likelihood that a generated flow follows this path.
    """

    path: Tuple[int, ...]
    disposition: str = "output"
    weight: float = 1.0


@dataclass(frozen=True)
class PipelineSpec:
    """A complete pipeline description (Table 1 row)."""

    name: str
    description: str
    tables: Tuple[TableSpec, ...]
    traversals: Tuple[TraversalTemplate, ...]

    def __post_init__(self) -> None:
        ids = [t.table_id for t in self.tables]
        if ids != sorted(set(ids)):
            raise ValueError(f"{self.name}: table ids must be unique/sorted")
        known = set(ids)
        for template in self.traversals:
            unknown = set(template.path) - known
            if unknown:
                raise ValueError(
                    f"{self.name}: traversal {template.path} references "
                    f"unknown tables {sorted(unknown)}"
                )
            if template.disposition not in ("output", "drop"):
                raise ValueError(
                    f"{self.name}: bad disposition {template.disposition!r}"
                )

    @property
    def table_count(self) -> int:
        return len(self.tables)

    @property
    def traversal_count(self) -> int:
        return len(self.traversals)

    def table_spec(self, table_id: int) -> TableSpec:
        for spec in self.tables:
            if spec.table_id == table_id:
                return spec
        raise KeyError(f"{self.name}: no table {table_id}")

    def build(self) -> Pipeline:
        """Instantiate an empty :class:`Pipeline` for this spec."""
        tables = tuple(
            PipelineTable(spec.table_id, spec.name, spec.fields)
            for spec in self.tables
        )
        return Pipeline(self.name, tables)


# -- field-group shorthands ------------------------------------------------------

_FIVE_TUPLE = ("ip_src", "ip_dst", "ip_proto", "tp_src", "tp_dst")


def _t(table_id: int, name: str, fields: Tuple[str, ...],
       rewrites: Tuple[str, ...] = ()) -> TableSpec:
    return TableSpec(table_id, name, fields, rewrites)


# =============================================================================
# OFD — OpenFlow Data Plane Abstraction (OF-DPA), 10 tables / 5 traversals
# =============================================================================

OFD = PipelineSpec(
    name="OFD",
    description=(
        "OpenFlow Data Plane Abstraction (OF-DPA): HW/SW switch "
        "integration pipeline used in CORD."
    ),
    tables=(
        _t(0, "ingress_port", ("in_port",)),
        _t(1, "vlan", ("in_port", "vlan_id"), rewrites=("vlan_id",)),
        _t(2, "termination_mac", ("eth_dst", "eth_type")),
        _t(3, "unicast_routing", ("ip_dst",),
           rewrites=("eth_src", "eth_dst")),
        _t(4, "multicast_routing", ("ip_src", "ip_dst"),
           rewrites=("eth_src",)),
        _t(5, "bridging", ("eth_dst",)),
        _t(6, "policy_acl", _FIVE_TUPLE),
        _t(7, "egress_vlan", ("vlan_id",), rewrites=("vlan_id",)),
        _t(8, "egress_port", ("in_port", "vlan_id")),
        _t(9, "mac_learning", ("vlan_id", "eth_src")),
    ),
    traversals=(
        # L2 bridged forwarding.
        TraversalTemplate((0, 1, 9, 5, 6, 7, 8), weight=4.0),
        # L3 unicast routing.
        TraversalTemplate((0, 1, 2, 3, 6, 7, 8), weight=4.0),
        # L3 multicast.
        TraversalTemplate((0, 1, 2, 4, 6, 7, 8), weight=1.0),
        # ACL deny after bridging lookup.
        TraversalTemplate((0, 1, 9, 5, 6), disposition="drop", weight=1.0),
        # VLAN translation fast path.
        TraversalTemplate((0, 1, 7, 8), weight=1.0),
    ),
)

# =============================================================================
# PSC — PISCES L2L3-ACL, 7 tables / 2 traversals
# =============================================================================

PSC = PipelineSpec(
    name="PSC",
    description="L2L3-ACL OVS pipeline as used in PISCES.",
    tables=(
        _t(0, "port_security", ("in_port", "eth_src")),
        _t(1, "vlan_check", ("vlan_id",)),
        _t(2, "l2_learning", ("eth_src",)),
        _t(3, "l2_forwarding", ("eth_dst", "eth_type")),
        _t(4, "l3_routing", ("ip_dst",), rewrites=("eth_src", "eth_dst")),
        _t(5, "acl", _FIVE_TUPLE),
        _t(6, "egress", ("in_port",)),
    ),
    traversals=(
        # Pure L2 switching with ACL.
        TraversalTemplate((0, 1, 2, 3, 5, 6), weight=1.0),
        # Routed path with ACL.
        TraversalTemplate((0, 1, 2, 3, 4, 5, 6), weight=1.0),
    ),
)

# =============================================================================
# OLS — OVN logical switch, 30 tables / 23 traversals
# =============================================================================

_OLS_TABLES = (
    # Ingress (ls_in_*).
    _t(0, "in_port_sec_l2", ("in_port", "eth_src")),
    _t(1, "in_port_sec_ip", ("eth_src", "ip_src")),
    _t(2, "in_port_sec_nd", ("eth_src", "ip_src")),
    _t(3, "in_lookup_fdb", ("in_port", "eth_src")),
    _t(4, "in_put_fdb", ("in_port", "eth_src")),
    _t(5, "in_pre_acl", ("ip_src", "ip_dst")),
    _t(6, "in_pre_lb", ("ip_dst", "ip_proto")),
    _t(7, "in_pre_stateful", ("ip_src", "ip_dst", "ip_proto")),
    _t(8, "in_acl_hint", ("ip_src", "ip_dst", "ip_proto")),
    _t(9, "in_acl", _FIVE_TUPLE),
    _t(10, "in_qos_mark", ("ip_src", "ip_proto")),
    _t(11, "in_qos_meter", ("in_port",)),
    _t(12, "in_lb", ("ip_dst", "ip_proto", "tp_dst"),
       rewrites=("ip_dst", "tp_dst")),
    _t(13, "in_stateful", ("ip_src", "ip_dst")),
    _t(14, "in_arp_rsp", ("eth_type", "ip_dst"), rewrites=("eth_dst",)),
    _t(15, "in_dhcp_options", ("ip_proto", "tp_src", "tp_dst")),
    _t(16, "in_dns_lookup", ("ip_proto", "tp_dst")),
    _t(17, "in_external_port", ("in_port", "eth_dst")),
    _t(18, "in_l2_lkup", ("eth_dst",)),
    # Egress (ls_out_*).
    _t(19, "out_pre_lb", ("ip_dst", "ip_proto")),
    _t(20, "out_pre_acl", ("ip_src", "ip_dst")),
    _t(21, "out_pre_stateful", ("ip_src", "ip_dst", "ip_proto")),
    _t(22, "out_lb", ("ip_dst", "tp_dst")),
    _t(23, "out_acl_hint", ("ip_src", "ip_dst", "ip_proto")),
    _t(24, "out_acl", _FIVE_TUPLE),
    _t(25, "out_qos_mark", ("ip_src", "ip_proto")),
    _t(26, "out_qos_meter", ("in_port",)),
    _t(27, "out_stateful", ("ip_src", "ip_dst")),
    _t(28, "out_port_sec_ip", ("eth_dst", "ip_dst")),
    _t(29, "out_port_sec_l2", ("eth_dst",)),
)

_OLS_TRAVERSALS = (
    # Core L2 unicast with security + ACL (the common path).
    TraversalTemplate((0, 3, 5, 6, 7, 9, 18, 19, 20, 21, 24, 28, 29),
                      weight=6.0),
    # Same with IP port security enabled.
    TraversalTemplate((0, 1, 3, 5, 6, 7, 9, 18, 19, 20, 21, 24, 28, 29),
                      weight=4.0),
    # With ND port security too.
    TraversalTemplate((0, 1, 2, 3, 5, 6, 7, 9, 18, 19, 20, 21, 24, 28, 29),
                      weight=2.0),
    # FDB learning path.
    TraversalTemplate((0, 3, 4, 5, 6, 7, 9, 18, 19, 20, 21, 24, 28, 29),
                      weight=2.0),
    # ARP responder (short-circuit reply).
    TraversalTemplate((0, 3, 14, 18, 29), weight=2.0),
    # DNS interception.
    TraversalTemplate((0, 3, 5, 6, 16, 18, 19, 29), weight=1.0),
    # DHCP options.
    TraversalTemplate((0, 3, 5, 6, 15, 18, 29), weight=1.0),
    # Load-balanced service path (DNAT in in_lb).
    TraversalTemplate((0, 3, 5, 6, 7, 9, 12, 13, 18, 19, 22, 24, 28, 29),
                      weight=3.0),
    # LB with affinity/stateful egress.
    TraversalTemplate((0, 3, 5, 6, 7, 9, 12, 13, 18, 19, 21, 22, 24, 27,
                       28, 29), weight=1.0),
    # Ingress ACL deny.
    TraversalTemplate((0, 3, 5, 6, 7, 9), disposition="drop", weight=2.0),
    # Egress ACL deny.
    TraversalTemplate((0, 3, 5, 6, 7, 9, 18, 19, 20, 21, 24),
                      disposition="drop", weight=1.0),
    # Port-security violation drops.
    TraversalTemplate((0,), disposition="drop", weight=1.0),
    TraversalTemplate((0, 1), disposition="drop", weight=1.0),
    # QoS-marked tenant path.
    TraversalTemplate((0, 3, 5, 6, 7, 9, 10, 11, 18, 19, 20, 21, 24, 25,
                       26, 28, 29), weight=1.0),
    # QoS + stateful.
    TraversalTemplate((0, 3, 5, 6, 7, 9, 10, 13, 18, 19, 20, 21, 24, 27,
                       28, 29), weight=1.0),
    # External/localnet port path.
    TraversalTemplate((0, 3, 17, 18, 19, 20, 24, 28, 29), weight=1.0),
    # External port with LB.
    TraversalTemplate((0, 3, 17, 18, 19, 22, 24, 29), weight=1.0),
    # Stateful-only (conntrack established fast path).
    TraversalTemplate((0, 3, 5, 6, 7, 13, 18, 19, 21, 27, 28, 29),
                      weight=2.0),
    # Established egress-only revalidation path.
    TraversalTemplate((0, 3, 5, 6, 18, 19, 20, 21, 24, 28, 29), weight=1.0),
    # Pre-LB skip (non-IP traffic).
    TraversalTemplate((0, 3, 18, 29), weight=1.0),
    # Non-IP with external check.
    TraversalTemplate((0, 3, 17, 18, 29), weight=1.0),
    # Hairpin/LB drop.
    TraversalTemplate((0, 3, 5, 6, 7, 9, 12), disposition="drop",
                      weight=1.0),
    # Egress port-security drop.
    TraversalTemplate((0, 3, 5, 6, 7, 9, 18, 19, 20, 21, 24, 28),
                      disposition="drop", weight=1.0),
)

OLS = PipelineSpec(
    name="OLS",
    description=(
        "OVN logical switch: virtual network topologies with logical "
        "segments using OVS."
    ),
    tables=_OLS_TABLES,
    traversals=_OLS_TRAVERSALS,
)

# =============================================================================
# ANT — Antrea Kubernetes networking, 22 tables / 20 traversals
# =============================================================================

_ANT_TABLES = (
    _t(0, "classification", ("in_port",)),
    _t(1, "uplink", ("in_port",)),
    _t(2, "spoof_guard", ("in_port", "eth_src", "ip_src")),
    _t(3, "arp_responder", ("eth_type", "ip_dst"), rewrites=("eth_dst",)),
    _t(4, "service_hairpin", ("ip_dst",)),
    _t(5, "conntrack_zone", ("ip_proto",)),
    _t(6, "conntrack_state", ("ip_proto",)),
    _t(7, "session_affinity", ("ip_src", "ip_dst", "tp_dst")),
    _t(8, "service_lb", ("ip_dst", "ip_proto", "tp_dst"),
       rewrites=("ip_dst", "tp_dst")),
    _t(9, "endpoint_dnat", ("ip_dst", "tp_dst"), rewrites=("ip_dst",)),
    _t(10, "antrea_policy_egress", ("ip_src", "ip_dst", "ip_proto",
                                    "tp_dst")),
    _t(11, "egress_rule", _FIVE_TUPLE),
    _t(12, "egress_default", ("ip_src",)),
    _t(13, "egress_metric", ("ip_src",)),
    _t(14, "l3_forwarding", ("ip_dst",),
       rewrites=("eth_src", "eth_dst")),
    _t(15, "snat", ("in_port", "ip_src"), rewrites=("ip_src",)),
    _t(16, "l3_dec_ttl", ("ip_dst",)),
    _t(17, "l2_forwarding_calc", ("eth_dst",)),
    _t(18, "antrea_policy_ingress", ("ip_src", "ip_dst", "ip_proto",
                                     "tp_dst")),
    _t(19, "ingress_rule", _FIVE_TUPLE),
    _t(20, "conntrack_commit", ("ip_proto",)),
    _t(21, "output", ("in_port",)),
)

_ANT_TRAVERSALS = (
    # Pod-to-pod, no policy hit.
    TraversalTemplate((0, 2, 5, 6, 10, 11, 13, 14, 16, 17, 18, 19, 20, 21),
                      weight=6.0),
    # Pod-to-service via LB + DNAT.
    TraversalTemplate((0, 2, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16, 17, 18,
                       19, 20, 21), weight=5.0),
    # Established connection fast path.
    TraversalTemplate((0, 2, 5, 6, 14, 17, 21), weight=4.0),
    # ARP responder.
    TraversalTemplate((0, 2, 3, 21), weight=2.0),
    # Hairpin service.
    TraversalTemplate((0, 2, 4, 5, 6, 7, 8, 9, 14, 17, 21), weight=1.0),
    # Uplink/external ingress.
    TraversalTemplate((0, 1, 5, 6, 18, 19, 20, 21), weight=2.0),
    # External egress with SNAT.
    TraversalTemplate((0, 2, 5, 6, 10, 11, 13, 14, 15, 16, 17, 21),
                      weight=2.0),
    # Antrea egress policy deny.
    TraversalTemplate((0, 2, 5, 6, 10), disposition="drop", weight=1.0),
    # K8s egress networkpolicy deny.
    TraversalTemplate((0, 2, 5, 6, 10, 11), disposition="drop", weight=1.0),
    # Egress default-deny.
    TraversalTemplate((0, 2, 5, 6, 10, 11, 12), disposition="drop",
                      weight=1.0),
    # Antrea ingress policy deny.
    TraversalTemplate((0, 2, 5, 6, 10, 11, 13, 14, 16, 17, 18),
                      disposition="drop", weight=1.0),
    # K8s ingress networkpolicy deny.
    TraversalTemplate((0, 2, 5, 6, 10, 11, 13, 14, 16, 17, 18, 19),
                      disposition="drop", weight=1.0),
    # Spoofed source drop.
    TraversalTemplate((0, 2), disposition="drop", weight=1.0),
    # Service with session affinity short path.
    TraversalTemplate((0, 2, 5, 6, 7, 9, 14, 17, 18, 19, 20, 21),
                      weight=1.0),
    # Pod-to-pod same node L2 only.
    TraversalTemplate((0, 2, 5, 6, 10, 11, 13, 17, 18, 19, 20, 21),
                      weight=2.0),
    # Uplink to service.
    TraversalTemplate((0, 1, 5, 6, 7, 8, 9, 14, 17, 18, 19, 20, 21),
                      weight=1.0),
    # Reply traffic with un-DNAT.
    TraversalTemplate((0, 2, 5, 6, 9, 14, 16, 17, 21), weight=1.0),
    # Egress metric-only path (policy audit mode).
    TraversalTemplate((0, 2, 5, 6, 10, 11, 13, 14, 16, 17, 18, 19, 21),
                      weight=1.0),
    # TTL-expired drop.
    TraversalTemplate((0, 2, 5, 6, 10, 11, 13, 14, 16),
                      disposition="drop", weight=1.0),
    # Uplink ingress deny.
    TraversalTemplate((0, 1, 5, 6, 18), disposition="drop", weight=1.0),
)

ANT = PipelineSpec(
    name="ANT",
    description=(
        "Antrea: networking and security policies for a Kubernetes "
        "cluster using OVS."
    ),
    tables=_ANT_TABLES,
    traversals=_ANT_TRAVERSALS,
)

# =============================================================================
# OTL — OpenFlow Table Type Patterns L2L3-ACL, 8 tables / 11 traversals
# =============================================================================
#
# TTP chains its stages on the VLAN tag, so most stages share a match field
# and the disjoint partitioner finds few cut points — reproducing the
# paper's observation that OTL has the least partitioning potential
# (coverage only 1.5x Megaflow in Table 2).

_OTL_TABLES = (
    _t(0, "ingress_vlan", ("in_port", "vlan_id"), rewrites=("vlan_id",)),
    _t(1, "mac_termination", ("eth_dst", "vlan_id")),
    _t(2, "bridging", ("eth_dst", "vlan_id")),
    _t(3, "unicast_routing", ("ip_dst", "vlan_id"),
       rewrites=("eth_src", "eth_dst")),
    _t(4, "ingress_acl", ("vlan_id", "ip_src", "ip_dst", "ip_proto",
                          "tp_dst")),
    _t(5, "egress_vlan", ("vlan_id",), rewrites=("vlan_id",)),
    _t(6, "egress_acl", ("vlan_id", "eth_dst", "tp_dst")),
    _t(7, "egress_port", ("in_port",)),
)

_OTL_TRAVERSALS = (
    # Bridged.
    TraversalTemplate((0, 1, 2, 4, 5, 6, 7), weight=4.0),
    # Routed.
    TraversalTemplate((0, 1, 3, 4, 5, 6, 7), weight=4.0),
    # Bridged, no egress ACL.
    TraversalTemplate((0, 1, 2, 4, 5, 7), weight=2.0),
    # Routed, no egress ACL.
    TraversalTemplate((0, 1, 3, 4, 5, 7), weight=2.0),
    # VLAN translate only.
    TraversalTemplate((0, 5, 7), weight=1.0),
    # Ingress ACL deny (bridged).
    TraversalTemplate((0, 1, 2, 4), disposition="drop", weight=1.0),
    # Ingress ACL deny (routed).
    TraversalTemplate((0, 1, 3, 4), disposition="drop", weight=1.0),
    # Egress ACL deny.
    TraversalTemplate((0, 1, 2, 4, 5, 6), disposition="drop", weight=1.0),
    # Unknown MAC flood path.
    TraversalTemplate((0, 1, 2, 5, 7), weight=1.0),
    # Router-local delivery.
    TraversalTemplate((0, 1, 3, 7), weight=1.0),
    # VLAN violation drop.
    TraversalTemplate((0,), disposition="drop", weight=1.0),
)

OTL = PipelineSpec(
    name="OTL",
    description=(
        "OpenFlow Table Type Patterns (TTP) configuring L2L3-ACL policies "
        "in OVS."
    ),
    tables=_OTL_TABLES,
    traversals=_OTL_TRAVERSALS,
)

# =============================================================================

#: All Table 1 pipelines by name.
PIPELINES: Dict[str, PipelineSpec] = {
    spec.name: spec for spec in (OFD, PSC, OLS, ANT, OTL)
}

#: Paper Table 1 — (tables, unique traversals) per pipeline.
TABLE1_EXPECTED: Dict[str, Tuple[int, int]] = {
    "OFD": (10, 5),
    "PSC": (7, 2),
    "OLS": (30, 23),
    "ANT": (22, 20),
    "OTL": (8, 11),
}


def get_pipeline_spec(name: str) -> PipelineSpec:
    """Look a spec up by its Table 1 name (case-insensitive)."""
    try:
        return PIPELINES[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown pipeline {name!r}; available: {sorted(PIPELINES)}"
        ) from None
