"""Megaflow cache: the single-table wildcard cache baseline (§2.1, Fig. 1a).

A Megaflow entry collapses an entire traversal into one rule: its match is
the initial flow masked by the union of every per-table wildcard (plus
dependency bits), and its actions are the traversal's *commit* — the net
header rewrite plus the terminal forward/drop.  OVS's dependency masking
guarantees entries never overlap, so the cache needs no priorities.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from ..classify.tss import TupleSpaceClassifier
from ..flow.actions import ActionList
from ..flow.key import FlowKey
from ..flow.match import TernaryMatch
from ..pipeline.pipeline import ENTRY_TABLE
from ..pipeline.traversal import Traversal
from .base import CacheResult, EntryHitReplay, FlowCache, HitReplay

_entry_ids = itertools.count()


class MegaflowEntry:
    """One cached traversal.

    Revalidation replays it from the pipeline's entry table, where
    every traversal begins.  ``path`` and ``verified`` are
    revalidation's stamps, as on :class:`~repro.core.ltm.LtmRule`: the
    table ids of the traversal as last walked, and the pipeline
    generation of the last walk that agreed with the entry (``None``:
    always replay).
    """

    __slots__ = (
        "match",
        "priority",
        "actions",
        "parent_flow",
        "length",
        "generation",
        "path",
        "verified",
        "last_used",
        "rule_id",
    )

    def __init__(
        self,
        match: TernaryMatch,
        actions: ActionList,
        parent_flow: FlowKey,
        length: int,
        generation: int = 0,
        now: float = 0.0,
    ):
        self.match = match
        self.priority = 0  # entries are non-overlapping by construction
        self.actions = actions
        self.parent_flow = parent_flow
        self.length = length
        self.generation = generation
        self.path: Tuple[int, ...] = ()
        self.verified: Optional[int] = None
        self.last_used = now
        self.rule_id = next(_entry_ids)

    def __repr__(self) -> str:
        return (
            f"MegaflowEntry(id={self.rule_id}, len={self.length}, "
            f"{self.match!r} -> {self.actions!r})"
        )


def build_megaflow_entry(
    traversal: Traversal,
    generation: int = 0,
    now: float = 0.0,
) -> MegaflowEntry:
    """Collapse a traversal into a single cache entry (the paper's K=1):
    the slice of all its steps, replayed by revalidation from the entry
    table and stamped with the walk's generation."""
    length = len(traversal.steps)
    derived = traversal.slice_entry(0, length)
    entry = MegaflowEntry(
        derived[0], derived[1], derived[5], length, generation, now
    )
    entry.path = derived[6]
    entry.verified = traversal.generation
    return entry


class MegaflowCache(FlowCache):
    """A capacity-bounded single-table wildcard cache.

    Attributes:
        capacity: Maximum entries (the paper's baseline uses 32K).  A
            full cache evicts its least recently used entry (OVS
            revalidator behaviour under pressure).
    """

    name = "megaflow"
    revalidates = True

    def __init__(self, capacity: int = 32768):
        super().__init__()
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._classifier: TupleSpaceClassifier[MegaflowEntry] = (
            TupleSpaceClassifier()
        )
        self._by_match: dict = {}
        #: id → entry, in use order (see :meth:`touch`): the first
        #: value is the least recently used entry.  Never rebound:
        #: :attr:`move_to_recent` is bound to it.
        self._by_id: "OrderedDict[int, MegaflowEntry]" = OrderedDict()
        #: ``_by_id``'s move to the recent end, bound once, as a hit's
        #: record keeps it.
        self.move_to_recent = self._by_id.move_to_end
        #: The classifier's climb, bound once: the search a lookup
        #: makes and a hit's record re-runs.
        self._climb = self._classifier.climb

    # -- FlowCache interface ------------------------------------------------------

    def lookup_traced(
        self, flow: FlowKey, now: float = 0.0
    ) -> Tuple[CacheResult, Optional[HitReplay]]:
        packed = flow.packed
        entry, probed = self._climb(packed)
        if entry is None:
            self.stats.misses += 1
            return CacheResult(False, None, None, probed), None
        actions = entry.actions
        result = CacheResult(True, actions, actions.output_port(), probed, 1)
        self.touch(entry, now)
        self.stats.hits += 1
        return result, EntryHitReplay(
            ((entry, self.move_to_recent, entry.rule_id),),
            self.hit_stats,
            result,
            self._climb,
            packed,
        )

    def touch(self, entry: MegaflowEntry, now: float) -> None:
        """Mark ``entry`` used at ``now`` (a lookup hit, an install
        refresh; a replayed hit writes the same through its record), so
        ``_by_id`` stays in use order."""
        entry.last_used = now
        self.move_to_recent(entry.rule_id)

    def install(self, entry: MegaflowEntry, now: float = 0.0) -> None:
        """Install an entry, evicting the LRU entry when full."""
        existing = self._by_match.get(entry.match)
        if existing is not None:
            # Refresh in place (same match predicate — same traversal).
            # The new actions came from another walk than the one the
            # kept parent flow stands for: replay it when next checked.
            self.touch(existing, now)
            existing.actions = entry.actions
            existing.generation = entry.generation
            existing.verified = None
            self.bump_epoch()
            return
        if len(self._by_match) >= self.capacity:
            victim = next(iter(self._by_id.values()))
            self._depart((victim,), "lru", now - victim.last_used)
            self.bump_epoch()
        entry.last_used = now
        self._classifier.insert(entry)
        self._by_match[entry.match] = entry
        self._by_id[entry.rule_id] = entry
        self.stats.insertions += 1
        self.bump_epoch()

    def install_traversal(
        self,
        traversal: Traversal,
        generation: int = 0,
        now: float = 0.0,
    ) -> None:
        """Build and install the entry for a traversal."""
        self.install(build_megaflow_entry(traversal, generation, now), now)

    def entry_count(self) -> int:
        return len(self._by_match)

    def capacity_total(self) -> int:
        return self.capacity

    # -- entry lifecycle (see FlowCache) ------------------------------------------

    def __iter__(self) -> Iterator[MegaflowEntry]:
        return iter(self._by_match.values())

    def _drop(self, entry: MegaflowEntry) -> None:
        self._classifier.remove(entry)
        del self._by_match[entry.match]
        del self._by_id[entry.rule_id]

    # -- revalidation (see FlowCache) ---------------------------------------------

    def replay_start(self, entry: MegaflowEntry) -> int:
        return ENTRY_TABLE

    def replay_agrees(self, entry: MegaflowEntry, replay: Traversal) -> bool:
        match, actions = replay.slice_entry(0, len(replay))[:2]
        return match == entry.match and actions == entry.actions

    # -- observability ----------------------------------------------------------------

    def attach_telemetry(self, telemetry, name: Optional[str] = None) -> None:
        super().attach_telemetry(telemetry, name)
        self._classifier.observer = telemetry.tss_observer(
            self.telemetry_name
        )

    # -- introspection ----------------------------------------------------------------

    @property
    def mask_group_count(self) -> int:
        """Distinct masks in the cache — TSS's per-lookup cost driver."""
        return self._classifier.group_count
