"""The cache contract and statistics shared by Microflow, Megaflow and Gigaflow."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from ..flow.actions import ActionList
from ..flow.key import FlowKey


@dataclass
class CacheStats:
    """Aggregate counters every cache keeps.

    ``hits``/``misses`` count lookups; ``insertions`` counts entries
    actually added; ``rejected`` counts installs refused for capacity;
    ``evictions`` counts every entry that left (capacity victim, idle,
    revalidation or ``clear()``), so ``insertions -
    evictions`` is the resident count.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    rejected: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.misses, self.insertions, self.rejected,
            self.evictions,
        )

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        """Counter-sum of two stat records (sharded-run aggregation)."""
        return CacheStats(
            self.hits + other.hits,
            self.misses + other.misses,
            self.insertions + other.insertions,
            self.rejected + other.rejected,
            self.evictions + other.evictions,
        )


@dataclass(slots=True)
class CacheResult:
    """Outcome of a cache lookup.

    A memoized hit hands out the result its lookup returned, again on
    every replay, so nothing mutates a result once returned.

    Attributes:
        hit: Whether the cache fully handled the packet.
        actions: The actions the cache applied (meaningful on a hit).
        output_port: Forwarding decision on a hit (``None`` for drops).
        groups_probed: Mask groups the TSS walk probes (plain lookups
            are charged it) — the software search cost metric used by
            the latency model.
        tables_hit: For multi-table caches, how many tables matched along
            the way (diagnostic; 0 or 1 for single-table caches).
    """

    hit: bool
    actions: Optional[ActionList] = None
    output_port: Optional[int] = None
    groups_probed: int = 0
    tables_hit: int = 0


#: What a full Gigaflow-family cache does with a new rule: evict the
#: least recently used one (the OVS revalidator under pressure) or
#: refuse the install (the paper's ``GF_k not full`` formulation,
#: Fig. 3 / Table 2).  Microflow and Megaflow caches always evict LRU.
EVICTION_MODES = ("lru", "reject")


def check_eviction(eviction: str) -> str:
    """``eviction`` if it is one of :data:`EVICTION_MODES`."""
    if eviction not in EVICTION_MODES:
        raise ValueError(
            f"unknown eviction mode {eviction!r} "
            f"(accepted: {', '.join(EVICTION_MODES)})"
        )
    return eviction


class HitReplay(abc.ABC):
    """Replayable side effects of one cache hit.

    The simulator's exact-match fast path memoizes, per flow signature,
    the side effects a hit performed (the ``touch`` of each entry it
    used, which sets ``last_used`` and the LRU position together, and
    the hit count in :attr:`FlowCache.stats`) together with the result
    the lookup returned, which every replay returns again.  Replaying
    must be *bit-identical* to re-running the full lookup.
    :attr:`epoch` is the cache's :attr:`FlowCache.mutation_epoch` when
    the record was last known good: while the cache is still there
    nothing at all has changed and the record replays unchecked.  Once
    the epoch has moved the fast path asks :meth:`still_valid`, lazily,
    when the flow next sends a packet — a record that can tell the
    change did not touch what its lookup depended on is re-stamped and
    replayed, any other is dropped.
    """

    __slots__ = ("epoch",)

    @abc.abstractmethod
    def replay(self, now: float) -> CacheResult:
        """Re-apply the hit's side effects; returns the hit result."""

    def still_valid(self) -> bool:
        """Whether, the epoch having moved, a full lookup would still
        reproduce this record exactly.  A record that keeps no account
        of what it depended on cannot know."""
        return False


class EntryHitReplay(HitReplay):
    """A hit on one entry (Microflow or Megaflow): the entry whose use
    it repeats and the result of the lookup that found it, probe count
    included.  A refresh that rewrites the entry's actions bumps the
    epoch, which drops the record."""

    __slots__ = ("cache", "entry", "result")

    def __init__(self, cache, entry, groups_probed: int):
        self.cache = cache
        self.entry = entry
        self.result = actions_result(
            entry.actions, groups_probed=groups_probed, tables_hit=1
        )

    def replay(self, now: float) -> CacheResult:
        cache = self.cache
        cache.touch(self.entry, now)
        cache.stats.hits += 1
        return self.result


class FlowCache(abc.ABC):
    """The one contract every cache the simulator can drive keeps.

    Caches differ in what an entry is — an exact flow (Microflow), a
    whole traversal (Megaflow), a sub-traversal (an LTM rule of
    Gigaflow) — and in nothing their callers need to ask about: each
    looks up through :meth:`lookup_traced` (:meth:`lookup` is its
    result alone), installs a freshly traced traversal through
    ``install_traversal(traversal, generation, now)``, removes an entry
    through :meth:`remove` and answers the introspection defaults
    (:meth:`per_table_counts`, :meth:`levels`, :attr:`telemetry_name`).

    **Entry lifecycle.**  What happens to a resident entry is defined
    here, once: :meth:`evict_idle` (the idle sweep), :meth:`clear`,
    :meth:`remove` and :meth:`_depart` (the one place an entry leaves,
    whatever the reason).  A cache that stores entries supplies only
    what is its own — ``__iter__`` over resident entries (each with a
    ``last_used``) and :meth:`_drop` — plus ``touch``: every
    ``last_used`` writer (lookup hit, fast-path replay, install
    refresh) is a ``touch`` that moves ``last_used`` and the entry's
    place in the cache's id → entry index, an ``OrderedDict``,
    together.  That index is the LRU order, so the capacity victim is
    its first value, and it equals ``last_used`` order only while
    every writer moves both.  (A memoized Gigaflow hit has its own
    ``touch``, over the rules of its chain.)  A composite
    (:class:`~repro.cache.hierarchy.CacheHierarchy`) delegates
    ``evict_idle``/``clear``/``remove`` to its levels instead.

    The mutation epoch is the *caller's*: ``_depart`` never bumps it,
    so an operation that removes several entries (a sweep, an install
    that evicts then inserts, a revalidation cycle) chooses how many
    invalidations the fast path sees.

    **Revalidation** (§4.3.1) replays each entry's parent flow from
    where the entry starts and compares the entry rebuilt from that
    replay with the stored one.  A cache whose entries are
    (sub-)traversals sets :attr:`revalidates` and says where an entry
    starts (:meth:`replay_start`) and whether a replay rebuilds it
    unchanged (:meth:`replay_agrees`);
    :class:`~repro.core.revalidation.IncrementalRevalidator` drives the
    rest the same way for every such cache.
    """

    name: str = "cache"
    #: Whether entries can be revalidated by replay: each entry is one
    #: (sub-)traversal with a ``parent_flow``, ``length`` and the
    #: ``path`` / ``verified`` / ``generation`` stamps.
    revalidates: bool = False
    #: Monotone counter of structural mutations (installs, evictions,
    #: idle sweeps, ``clear()``, revalidation), moved only by
    #: :meth:`bump_epoch`.  Lookup outcomes can only change when this
    #: does — the fast path's invalidation signal.  The class default
    #: is the starting value: ``__init__`` leaves it alone, so a
    #: composite can compute its own from its levels' instead.
    mutation_epoch: int = 0

    def __init__(self) -> None:
        self.stats = CacheStats()
        #: Attached :class:`~repro.obs.telemetry.Telemetry`, or ``None``.
        #: Instrumentation sites guard on this so the detached default
        #: costs one attribute check.
        self.telemetry = None
        self.telemetry_name = self.name

    def attach_telemetry(self, telemetry, name: Optional[str] = None) -> None:
        """Wire this cache (and any sub-components) to a telemetry hub."""
        self.telemetry = telemetry
        self.telemetry_name = name or self.name

    def last_used_times(self) -> List[float]:
        """Per-entry last-use times — the LRU-age snapshot source.  A
        list comprehension, not a generator: the snapshot cadence walks
        every entry each sweep interval, and generator frames dominate
        that cost at high entry counts."""
        return [entry.last_used for entry in self]

    def bump_epoch(self) -> None:
        """Record a structural mutation, invalidating memoized lookups."""
        self.mutation_epoch += 1

    def lookup(self, flow: FlowKey, now: float = 0.0) -> CacheResult:
        """Look a packet up; updates hit/miss counters."""
        return self.lookup_traced(flow, now)[0]

    @abc.abstractmethod
    def lookup_traced(
        self, flow: FlowKey, now: float = 0.0
    ) -> Tuple[CacheResult, Optional[HitReplay]]:
        """Look a packet up, returning the result and, for a hit the
        fast path may memoize, its :class:`HitReplay` record
        (``None`` otherwise)."""

    @abc.abstractmethod
    def install_traversal(
        self, traversal, generation: int = 0, now: float = 0.0
    ):
        """Install cache state for a freshly traced traversal walked at
        pipeline ``generation``, at time ``now``."""

    @abc.abstractmethod
    def entry_count(self) -> int:
        """Entries currently installed (across all tables)."""

    @abc.abstractmethod
    def capacity_total(self) -> int:
        """Maximum entries the cache can hold (across all tables)."""

    def per_table_counts(self) -> Tuple[int, ...]:
        """Entries per cache table; empty for a single-table cache."""
        return ()

    def levels(self) -> Tuple[Tuple[str, "FlowCache"], ...]:
        """``(name, cache)`` of each cache this one is built from, in
        lookup order; empty for a cache that stores its own entries."""
        return ()

    # -- entry lifecycle ----------------------------------------------------

    def __iter__(self) -> Iterator:
        """Resident entries, each carrying a ``last_used`` time."""
        raise NotImplementedError(
            f"{type(self).__name__} does not enumerate its entries"
        )

    def _drop(self, entry) -> None:
        """Unlink ``entry`` from this cache's indexes (its place in the
        recency order goes with it); ``KeyError`` when not resident.
        Only :meth:`_depart` calls this."""
        raise NotImplementedError

    def _depart(
        self,
        entries: Iterable,
        reason: str,
        victim_age: Optional[float] = None,
    ) -> int:
        """Remove ``entries`` and record that they left for ``reason``.

        Every departure — capacity victim, idle expiry, revalidation,
        ``clear()`` — comes through here: the entry is dropped,
        ``stats.evictions`` counts it and telemetry gets one ``evict``
        record for the batch.
        ``victim_age`` is the idle age of a capacity victim (``reason``
        is then ``"lru"``); it feeds the victim-age distribution.
        Returns the count.
        """
        count = 0
        for entry in entries:
            self._drop(entry)
            count += 1
        if count:
            self.stats.evictions += count
            tel = self.telemetry
            if tel is not None:
                tel.on_evict(self.telemetry_name, reason, count)
                if victim_age is not None:
                    tel.on_victim(self.telemetry_name, victim_age)
        return count

    def remove(self, entry, reason: str) -> None:
        """Remove one resident entry for ``reason`` (revalidation's
        eviction); ``KeyError`` when it is not resident."""
        self._depart((entry,), reason)
        self.bump_epoch()

    def evict_idle(self, now: float, max_idle: float) -> int:
        """Remove entries idle *strictly* longer than ``max_idle``;
        returns the number removed.

        Boundary contract (pinned by ``tests/test_eviction_policies.py``
        and ``tests/test_timeout_boundary.py``): an entry expires only
        when ``now - last_used > max_idle`` — an entry idle for
        *exactly* ``max_idle`` survives the sweep.  This is the one
        body every cache runs; a refactor must not silently flip it to
        ``>=``.  A sweep that removes anything is one
        ``evict(reason="idle")`` record and one epoch bump, however many
        entries went.
        """
        expired = [
            entry for entry in self if now - entry.last_used > max_idle
        ]
        if self._depart(expired, "idle"):
            self.bump_epoch()
        return len(expired)

    def clear(self) -> None:
        """Drop all entries.  Counters are kept, and the drop itself
        counts: each entry departs for reason ``"clear"``."""
        self._depart(list(self), "clear")
        self.bump_epoch()

    @property
    def occupancy(self) -> float:
        """Fraction of capacity in use."""
        capacity = self.capacity_total()
        return self.entry_count() / capacity if capacity else 0.0

    # -- revalidation (see IncrementalRevalidator) ---------------------------

    def replay_start(self, entry) -> int:
        """The pipeline table ``entry``'s replay starts at."""
        raise NotImplementedError

    def replay_agrees(self, entry, replay) -> bool:
        """Whether the entry rebuilt from ``replay`` (the walk of
        ``entry.parent_flow`` from :meth:`replay_start` for
        ``entry.length`` tables) is ``entry`` unchanged."""
        raise NotImplementedError


def actions_result(
    actions: ActionList, groups_probed: int, tables_hit: int
) -> CacheResult:
    """Build a hit result from an entry's actions."""
    return CacheResult(
        hit=True,
        actions=actions,
        output_port=actions.output_port(),
        groups_probed=groups_probed,
        tables_hit=tables_hit,
    )
