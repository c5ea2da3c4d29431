"""repro.net — multi-switch fabric simulation with per-hop caches.

Lifts the single-switch simulator to a topology: a
:class:`~repro.net.topology.Topology` (leaf/spine, linear, ring), one
caching system + pipeline per switch, and a
:class:`~repro.net.fabric.FabricController` computing the ECMP-spread
shortest path every packet traverses — so one packet exercises N
caches.  See ``docs/fabric.md``.
"""

from .fabric import (
    FabricController,
    FabricResult,
    FabricSimulator,
)
from .topology import Topology, leaf_spine, linear, ring

__all__ = [
    "FabricController",
    "FabricResult",
    "FabricSimulator",
    "Topology",
    "leaf_spine",
    "linear",
    "ring",
]
