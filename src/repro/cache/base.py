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
        groups_probed: Mask groups the TSS walk probes (a climb is
            charged it) — the software search cost metric used by
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


class HitReplay:
    """What one cache hit did, kept so the fast path can do it again.

    Every cache's record has this one shape, the data a replay needs
    and nothing else:

    * ``touches`` — one ``(entry, move_to_recent, key)`` per entry the
      hit used.  ``move_to_recent`` is the bound ``move_to_end`` of the
      cache's use-order index (``MicroflowCache._entries``,
      ``MegaflowCache._by_id``, each ``LtmTable._by_id``) and ``key``
      the entry's key there, so a touch sets ``entry.last_used`` and
      moves the entry to the recent end without a Python frame;
    * ``stats`` — the :class:`CacheStats` the hit counts in, one per
      cache level the hit passed through (the cache's
      :attr:`FlowCache.hit_stats`);
    * ``result`` — the :class:`CacheResult` the lookup returned, handed
      out again by every replay (so never mutated: a re-charge in
      :meth:`still_valid` replaces it);
    * ``epoch`` — the cache's :attr:`FlowCache.mutation_epoch` when the
      record was last known good, set by the fast path when it
      memoizes the record;
    * ``tally`` — replays of ``result`` not yet filed into the lookup
      histograms.  With metrics-only telemetry the fast path counts a
      replay here instead of calling the hub, and folds the tally
      into the histograms later (``FastPathIndex.fold_tallies``); it
      stays 0 otherwise.

    :func:`apply_hit` is what a hit writes.  A cache's lookup writes
    the same for the hit it records (Gigaflow through
    :func:`apply_hit`, Microflow and Megaflow through their ``touch``),
    and ``FastPathIndex.lookup`` does it inline for a memoized hit, so
    a replay is bit-identical to the full lookup.
    While the cache is still at :attr:`epoch` nothing at all has
    changed and the record replays unchecked.  Once the epoch has moved
    the fast path asks :meth:`still_valid`, lazily, when the flow next
    sends a packet — a record whose lookup, re-run, would find what it
    found is re-stamped and replayed, any other is dropped.  That check
    is the only behaviour that differs per cache: Gigaflow's record
    re-runs the LTM lookups whose buckets changed
    (``core/gigaflow.py``), a single-entry cache's re-runs its one
    search (:class:`EntryHitReplay`).
    """

    __slots__ = ("touches", "stats", "result", "epoch", "tally")

    def still_valid(self) -> bool:
        """Whether, the epoch having moved, a full lookup would still
        reproduce this record exactly; a record re-charged by the check
        holds a new :attr:`result`.  Each cache's record answers with
        its own re-run of the lookup."""
        raise NotImplementedError


class EntryHitReplay(HitReplay):
    """The hit of a cache that answers with one entry (Microflow,
    Megaflow, a hierarchy's Microflow level): one touch, and the search
    that found the entry.

    ``find`` is that search, the cache's own, and ``key`` what it was
    called with (the packed flow): ``find(key)`` returns ``(winner,
    groups_probed)`` as the lookup's did.  A stale record re-runs it
    and stays valid exactly when the winner is still its entry, holding
    the same actions object: the touch, the hit counts and the actions
    and port handed out are then the full lookup's.  A moved probe
    count is re-charged in a new result.

    Megaflow's search is a TSS climb, not a residency test: entries of
    two pipeline generations can overlap until revalidation reaches
    them, and a new entry in an older mask group then wins over a
    resident one.
    """

    __slots__ = ("find", "key")

    def __init__(self, touches, stats, result: CacheResult, find, key):
        self.touches = touches
        self.stats = stats
        self.result = result
        self.tally = 0
        self.find = find
        self.key = key

    def still_valid(self) -> bool:
        """A full lookup now finds the same entry with the same actions
        object; its probe count replaces the old one."""
        winner, probed = self.find(self.key)
        kept = self.result
        if winner is not self.touches[0][0] or (
            winner.actions is not kept.actions
        ):
            return False
        if probed != kept.groups_probed:
            self.result = CacheResult(
                True, kept.actions, kept.output_port, probed,
                kept.tables_hit,
            )
        return True


def apply_hit(record: HitReplay, now: float) -> CacheResult:
    """Do what ``record``'s hit does at ``now``: touch every entry it
    used, count one hit in each of its stats, and return its result.
    ``FastPathIndex.lookup`` holds the same body inline, for a memoized
    hit to open no frame of its own."""
    for entry, move_to_recent, key in record.touches:
        entry.last_used = now
        move_to_recent(key)
    for stats in record.stats:
        stats.hits += 1
    return record.result


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
    ``last_used`` writer moves ``last_used`` and the entry's place in
    the cache's id → entry index, an ``OrderedDict``, together — an
    install refresh through ``touch``, a hit (looked up or replayed)
    through its :class:`HitReplay` record's ``touches``, which hold
    that index's bound ``move_to_end``.  The index is therefore touch
    order, and the capacity victim is its first value; it equals
    ``last_used`` order only while time does not regress (the
    timestamps of :func:`repro.serve.endless_packets` do at segment
    seams, which is why :meth:`evict_idle` scans every entry).  A
    composite
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
    #: does — the fast path's invalidation signal.  A plain attribute:
    #: the packet loop reads it on every memoized hit.
    mutation_epoch: int = 0
    #: The composite this cache is a level of (``None``: none), whose
    #: epoch :meth:`bump_epoch` moves too — so a composite's epoch is
    #: a plain attribute that stays the sum of its levels'.
    composite: Optional["FlowCache"] = None

    def __init__(self) -> None:
        self.stats = CacheStats()
        #: The ``stats`` a hit's :class:`HitReplay` counts in, built
        #: once and shared by every record.
        self.hit_stats: Tuple[CacheStats, ...] = (self.stats,)
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
        """Record a structural mutation, invalidating memoized lookups
        (of this cache and of the composite it is a level of)."""
        self.mutation_epoch += 1
        composite = self.composite
        if composite is not None:
            composite.bump_epoch()

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

