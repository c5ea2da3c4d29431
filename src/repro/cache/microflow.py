"""Microflow cache: OVS's exact-match first-level cache (EMC).

One entry per exact flow signature; captures temporal locality only (§2.1).
Provided for completeness and for the cache-hierarchy example; the paper's
evaluation compares Megaflow vs. Gigaflow.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from ..flow.actions import ActionList
from ..flow.key import FlowKey
from ..pipeline.traversal import Traversal
from .base import CacheResult, FlowCache, HitReplay, actions_result


class MicroflowCache(FlowCache):
    """An exact-match cache from flow signature to actions.

    A full cache evicts its least recently used entry: ``_entries`` is
    kept in use order (see :meth:`touch`), so the victim is its first
    value.
    """

    name = "microflow"

    def __init__(self, capacity: int = 8192):
        super().__init__()
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: packed flow → entry, in use order.  Never rebound:
        #: :attr:`move_to_recent` is bound to it.
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        #: ``_entries``' move to the recent end, bound once, as a hit's
        #: record keeps it.
        self.move_to_recent = self._entries.move_to_end

    # -- FlowCache interface -------------------------------------------------

    def lookup_traced(
        self, flow: FlowKey, now: float = 0.0
    ) -> Tuple[CacheResult, Optional[HitReplay]]:
        entry = self._entries.get(flow.packed)
        if entry is None:
            self.stats.misses += 1
            return CacheResult(hit=False, groups_probed=1), None
        record = HitReplay(
            ((entry, self.move_to_recent, entry.key),),
            self.hit_stats,
            actions_result(entry.actions, 1, 1),
        )
        self.touch(entry, now)
        self.stats.hits += 1
        return record.result, record

    def touch(self, entry: _Entry, now: float) -> None:
        """Mark ``entry`` used at ``now`` (a lookup hit, an install
        refresh; a replayed hit writes the same through its record), so
        ``_entries`` stays in use order."""
        entry.last_used = now
        self.move_to_recent(entry.key)

    def install(self, flow: FlowKey, actions: ActionList, now: float = 0.0) -> bool:
        """Insert (or refresh) an exact-match entry, evicting the
        least recently used one when full."""
        key = flow.packed
        entry = self._entries.get(key)
        if entry is not None:
            self.touch(entry, now)
            entry.actions = actions
            self.bump_epoch()
            return True
        if len(self._entries) >= self.capacity:
            victim = next(iter(self._entries.values()))
            self._depart((victim,), "lru", now - victim.last_used)
        self._entries[key] = _Entry(key, actions, now)
        self.stats.insertions += 1
        self.bump_epoch()
        return True

    def install_traversal(
        self, traversal: Traversal, generation: int = 0, now: float = 0.0
    ) -> None:
        """Install the traversal's initial flow with its committed
        actions (an exact-match entry keeps no generation)."""
        actions = traversal.slice_entry(0, len(traversal))[1]
        self.install(traversal.initial_flow, actions, now)

    def entry_count(self) -> int:
        return len(self._entries)

    def capacity_total(self) -> int:
        return self.capacity

    # -- entry lifecycle (see FlowCache) -------------------------------------

    def __iter__(self) -> Iterator[_Entry]:
        return iter(self._entries.values())

    def _drop(self, entry: _Entry) -> None:
        del self._entries[entry.key]


class _Entry:
    """One exact-match entry; ``key`` (the flow's packed value) names it
    in the cache's index."""

    __slots__ = ("key", "actions", "last_used")

    def __init__(self, key: int, actions: ActionList, now: float):
        self.key = key
        self.actions = actions
        self.last_used = now
