"""Fabric traffic: locality-skewed flow → (ingress, egress) endpoints.

A fabric run (:mod:`repro.net`) needs to know where each flow attaches:
which leaf it enters at and which leaf it exits at.  The *locality*
knob is the share of flows whose endpoints sit under the **same** leaf
— those flows never cross a spine, so lowering locality shifts
distinct-flow pressure from the leaves onto the (fewer) spines.  That
asymmetry is the whole point of the spine-pressure bench
(``repro bench --net``): with ``L`` leaves, ``S`` spines and
cross-leaf fraction ``c = 1 - locality``, each leaf sees roughly
``(1 - c + 2c) / L`` of the distinct flows while each spine sees
``c / S`` — spines come under *more* pressure than leaves as soon as
``L / S > 1 / c + 2``.

Endpoints are drawn with a dedicated seeded PRNG so the map is a pure
function of ``(topology, n_flows, locality, seed)``.  Deliberately
*not* a CRC of the flow id (builtin ``hash`` of a str is salted per
interpreter and was never an option — DESIGN.md §5, "Determinism"): for
equal-length keys CRCs are linear, so ``crc32("src/i")`` and
``crc32("dst/i")`` differ by a constant and the two draws correlate
perfectly — a seeded PRNG gives genuinely independent draws.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # avoid workload -> net -> serve -> workload cycle
    from ..net.topology import Topology

__all__ = ["build_fabric_endpoints"]


def build_fabric_endpoints(
    topology: "Topology",
    n_flows: int,
    locality: float = 0.5,
    seed: int = 0,
    role: str = "leaf",
) -> Dict[int, Tuple[str, str]]:
    """``{flow_id: (ingress, egress)}`` for flow ids ``0..n_flows-1``.

    Args:
        topology: The fabric; endpoints attach to its ``role`` switches
            (all switches when no switch carries the role — the linear
            and ring builders assign ``"switch"``).
        n_flows: Size of the map; cover every ``flow_id`` the trace can
            emit (``build_workload(n_flows=...)`` numbers flows from 0).
        locality: Probability a flow is leaf-local (ingress == egress);
            ``1.0`` keeps all traffic off the spines, ``0.0`` makes
            every flow cross the fabric.
        seed: PRNG seed — same inputs, same map, any interpreter.
        role: Which switches act as attachment points.

    Returns:
        A dense map for :class:`repro.net.FabricController`.
    """
    if n_flows < 0:
        raise ValueError(f"n_flows must be non-negative, got {n_flows}")
    if not 0.0 <= locality <= 1.0:
        raise ValueError(f"locality must be in [0, 1], got {locality}")
    edges = topology.by_role(role) or topology.switches
    rng = random.Random(f"fabric-endpoints/{seed}")
    endpoints: Dict[int, Tuple[str, str]] = {}
    for flow_id in range(n_flows):
        src = edges[rng.randrange(len(edges))]
        if len(edges) == 1 or rng.random() < locality:
            dst = src
        else:
            others = [e for e in edges if e != src]
            dst = others[rng.randrange(len(others))]
        endpoints[flow_id] = (src, dst)
    return endpoints
