"""The OVS cache hierarchy: Microflow → Megaflow → slow path (§2.1).

Open vSwitch checks an exact-match Microflow cache first (temporal
locality), then the wildcard Megaflow cache (spatial locality), and only
then executes the multi-table pipeline.  This module composes the two
baseline caches into that hierarchy; it is the software-only configuration
SmartNIC offloads replace.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Tuple

from ..flow.key import FlowKey
from ..pipeline.traversal import Traversal
from .base import CacheResult, EntryHitReplay, FlowCache, HitReplay
from .megaflow import MegaflowCache
from .microflow import MicroflowCache


class CacheHierarchy(FlowCache):
    """Microflow in front of Megaflow, with pass-through statistics.

    A Microflow hit never consults the Megaflow cache; a Megaflow hit
    promotes the exact flow into the Microflow cache (as OVS does); a miss
    falls through to the caller's slow path, whose resulting traversal is
    installed into both levels via :meth:`install_traversal`.  Both
    levels evict their least recently used entry when full.

    Only Microflow-level hits are memoizable: a Megaflow-level hit
    promotes the flow into the Microflow cache — a mutation, so its
    record would be stale the moment it is made (and the *next* lookup
    of the same flow is a Microflow hit anyway).  A Microflow hit's
    record is the level's, counting in the hierarchy's stats too: it
    never consulted the Megaflow level, so it stays valid while its
    key still maps to the same Microflow entry holding the same actions
    (:class:`~repro.cache.base.EntryHitReplay`), whatever either level
    did since.
    """

    name = "hierarchy"

    def __init__(
        self,
        microflow_capacity: int = 8192,
        megaflow_capacity: int = 32768,
    ):
        super().__init__()
        self.microflow = MicroflowCache(microflow_capacity)
        self.megaflow = MegaflowCache(megaflow_capacity)
        # Every structural mutation happens in a level, and a level's
        # bump_epoch moves this epoch too: it stays the sum of the two
        # (both monotone), a plain attribute the packet loop reads.
        self.mutation_epoch = (
            self.microflow.mutation_epoch + self.megaflow.mutation_epoch
        )
        self.microflow.composite = self
        self.megaflow.composite = self
        # A Microflow-level hit counts there and here.
        self.hit_stats = (self.microflow.stats, self.stats)

    def lookup_traced(
        self, flow: FlowKey, now: float = 0.0
    ) -> Tuple[CacheResult, Optional[HitReplay]]:
        first, inner = self.microflow.lookup_traced(flow, now)
        if first.hit:
            self.stats.hits += 1
            return first, EntryHitReplay(
                inner.touches, self.hit_stats, first, inner.find, inner.key
            )
        second = self.megaflow.lookup(flow, now)
        if second.hit:
            # Promote into the exact-match level (OVS's EMC insert).
            self.microflow.install(flow, second.actions, now)
            self.stats.hits += 1
            return (
                CacheResult(
                    hit=True,
                    actions=second.actions,
                    output_port=second.output_port,
                    groups_probed=first.groups_probed
                    + second.groups_probed,
                    tables_hit=2,
                ),
                None,
            )
        self.stats.misses += 1
        return (
            CacheResult(
                hit=False,
                groups_probed=first.groups_probed + second.groups_probed,
            ),
            None,
        )

    def install_traversal(
        self, traversal: Traversal, generation: int = 0, now: float = 0.0
    ) -> None:
        self.megaflow.install_traversal(traversal, generation, now)
        self.microflow.install_traversal(traversal, generation, now)

    # -- FlowCache bookkeeping -----------------------------------------------

    def entry_count(self) -> int:
        return self.microflow.entry_count() + self.megaflow.entry_count()

    def capacity_total(self) -> int:
        return (
            self.microflow.capacity_total()
            + self.megaflow.capacity_total()
        )

    # Entries live (and leave) in the two levels; the hierarchy only
    # fans the lifecycle calls out.

    def __iter__(self):
        return chain(self.microflow, self.megaflow)

    def levels(self):
        return (("microflow", self.microflow), ("megaflow", self.megaflow))

    def remove(self, entry, reason: str) -> None:
        """Remove ``entry`` through the level that holds it, which
        records the departure and bumps its epoch; ``KeyError`` when
        neither level does."""
        for _, level in self.levels():
            if any(resident is entry for resident in level):
                level.remove(entry, reason)
                return
        raise KeyError(entry)

    def evict_idle(self, now: float, max_idle: float) -> int:
        return self.microflow.evict_idle(now, max_idle) + \
            self.megaflow.evict_idle(now, max_idle)

    def clear(self) -> None:
        self.microflow.clear()
        self.megaflow.clear()

    def attach_telemetry(self, telemetry, name: Optional[str] = None) -> None:
        super().attach_telemetry(telemetry, name)
        for level_name, level in self.levels():
            level.attach_telemetry(
                telemetry, f"{self.telemetry_name}.{level_name}"
            )
