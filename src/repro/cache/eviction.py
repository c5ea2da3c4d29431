"""Pluggable eviction policies for every cache in the hierarchy.

Which entries survive capacity pressure decides how much of a workload a
fixed-size cache can cover: Flow Correlator (arXiv:2305.02918) shows
flow-table hit rates swing materially on cache management alone, and for
Gigaflow the stakes are higher still — an LTM rule shared by many
traversals is worth far more than a leaf rule that serves one flow
(Fig. 11's reoccurrence curve).  This module extracts the recency
bookkeeping that used to be hard-coded per cache into one
:class:`EvictionPolicy` interface with two implementations:

``lru``
    Plain least-recently-used.  The default everywhere, and a *pure
    extraction* of the pre-existing behaviour: with ``lru`` installed
    every cache is bit-identical to the hard-coded code it replaced
    (``tests/test_eviction_golden.py`` proves it differentially).
``sharing``
    Sharing-aware: entries accumulate weight from hits and — via
    :meth:`EvictionPolicy.on_share` — from cross-traversal reuse events
    (LTM rule sharing, Megaflow entry refreshes).  Entries are banded
    into weight tiers, each an LRU list; the victim comes from the
    lowest-weight non-empty tier, so heavily shared sub-traversal rules
    outlive single-flow leaves.  Caches that never share (Microflow)
    degrade to an in-cache LFU-with-recency.

(``slru`` and ``2q`` were deleted: both lost to ``lru`` in every
``repro bench --evictions`` cell measured.  The adaptive controller
selects between the two that remain from observed sharing.)

Every mutating operation is O(1) — per TupleChain (arXiv:2408.04390)
the policy must never become the hot-path bottleneck — except that
``sharing``'s :meth:`victim` scans its fixed tier count (O(4)).

The policy tracks *keys only*; the owning cache keeps the key → entry
storage and calls the ``on_*`` hooks as entries are installed, hit,
shared and removed.  :meth:`victim` peeks — the cache performs the
actual removal and then reports it with :meth:`on_remove`.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Dict, Hashable, Iterator, Optional, Tuple

__all__ = [
    "EVICTION_POLICIES",
    "POLICY_NAMES",
    "EvictionPolicy",
    "LruPolicy",
    "SharingAwarePolicy",
    "make_policy",
    "reseed_policy",
]


class EvictionPolicy(abc.ABC):
    """Victim-selection state for one capacity-bounded cache (or table).

    The contract with the owning cache:

    * every resident key is announced exactly once via :meth:`on_insert`
      and retired exactly once via :meth:`on_remove` (capacity eviction,
      idle sweep, revalidation or ``clear()``);
    * :meth:`on_hit` fires on every lookup hit *and* on installs that
      refresh an already-resident entry;
    * :meth:`on_share` fires when an entry is reused by another
      traversal (LTM rule sharing) — policies that do not care inherit
      the no-op;
    * timestamps passed to the hooks are nondecreasing (the simulator's
      clock is).
    """

    name: str = "policy"

    @abc.abstractmethod
    def on_insert(self, key: Hashable, now: float) -> None:
        """A new entry became resident under ``key``."""

    @abc.abstractmethod
    def on_hit(self, key: Hashable, now: float) -> None:
        """A resident entry was used (lookup hit or install refresh)."""

    def on_share(self, key: Hashable, amount: int = 1) -> None:
        """A resident entry was reused across traversals (no-op here)."""

    def decay(self, factor: Optional[float] = None) -> int:
        """Age accumulated popularity state (no-op for stateless policies).

        Weight-tracking policies scale every entry's weight by
        ``factor`` (their configured ``decay_factor`` when ``None``) and
        demote entries whose tier no longer matches; returns the number
        of entries that changed tier.  The adaptive controller calls
        this on the sweep cadence so reinforcement earned during an old
        traffic phase cannot protect entries forever.
        """
        return 0

    @abc.abstractmethod
    def on_remove(self, key: Hashable) -> None:
        """A resident entry was removed (for any reason)."""

    @abc.abstractmethod
    def victim(self) -> Optional[Hashable]:
        """The key this policy would evict next (``None`` when empty).

        Peek only — the cache removes the entry and calls
        :meth:`on_remove`.
        """

    @abc.abstractmethod
    def clear(self) -> None:
        """Forget every key (the cache was cleared)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Resident keys tracked — must equal the cache's entry count."""

    @abc.abstractmethod
    def __contains__(self, key: Hashable) -> bool: ...


class LruPolicy(EvictionPolicy):
    """Plain LRU: victim = least recently inserted/hit key.

    Exactly the ``OrderedDict`` + ``move_to_end`` bookkeeping Microflow
    and ``LtmTable`` hard-coded before the extraction.
    """

    name = "lru"

    def __init__(self):
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_insert(self, key: Hashable, now: float) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def on_hit(self, key: Hashable, now: float) -> None:
        self._order.move_to_end(key)

    def on_remove(self, key: Hashable) -> None:
        del self._order[key]

    def victim(self) -> Optional[Hashable]:
        for key in self._order:
            return key
        return None

    def clear(self) -> None:
        self._order.clear()

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._order


class SharingAwarePolicy(EvictionPolicy):
    """Weight-tiered LRU protecting heavily shared entries.

    Every entry accumulates weight: 1 per hit, ``share_credit`` per
    cross-traversal share event (:meth:`on_share` — LTM rule reuse or a
    Megaflow entry refresh).  Entries live in ``tiers`` LRU bands
    indexed by ``min(weight.bit_length(), tiers - 1)``; the victim is
    the LRU head of the lowest non-empty band.  A shared sub-traversal
    rule therefore needs the whole band below it to drain before it is
    at risk — the LTM-table analogue of protecting shared prefix nodes.

    Weight is earned forever but loses value over time: :meth:`decay`
    scales every weight by ``decay_factor`` and demotes entries whose
    band dropped, so reinforcement earned during a dead traffic phase
    cannot protect an entry indefinitely (the over-protection noted in
    ``docs/eviction.md``).  Decay only runs when something calls it —
    the adaptive controller does so on the sweep cadence.
    """

    name = "sharing"

    def __init__(
        self, tiers: int = 4, share_credit: int = 2,
        decay_factor: float = 0.5,
    ):
        if tiers < 2:
            raise ValueError(f"need at least two tiers, got {tiers}")
        if share_credit < 1:
            raise ValueError(
                f"share_credit must be positive, got {share_credit}"
            )
        if not 0.0 <= decay_factor < 1.0:
            raise ValueError(
                f"decay_factor must be in [0, 1), got {decay_factor}"
            )
        self.share_credit = share_credit
        self.decay_factor = decay_factor
        self._tiers: Tuple["OrderedDict[Hashable, None]", ...] = tuple(
            OrderedDict() for _ in range(tiers)
        )
        self._tier_of: Dict[Hashable, int] = {}
        self._weight: Dict[Hashable, int] = {}

    def on_insert(self, key: Hashable, now: float) -> None:
        if key in self._tier_of:
            self._tiers[self._tier_of[key]].move_to_end(key)
            return
        self._weight[key] = 0
        self._tier_of[key] = 0
        self._tiers[0][key] = None

    def on_hit(self, key: Hashable, now: float) -> None:
        self._credit(key, 1)

    def on_share(self, key: Hashable, amount: int = 1) -> None:
        self._credit(key, self.share_credit * amount)

    def _credit(self, key: Hashable, amount: int) -> None:
        weight = self._weight[key] + amount
        self._weight[key] = weight
        level = min(weight.bit_length(), len(self._tiers) - 1)
        current = self._tier_of[key]
        if level != current:
            del self._tiers[current][key]
            self._tiers[level][key] = None
            self._tier_of[key] = level
        else:
            self._tiers[current].move_to_end(key)

    def decay(self, factor: Optional[float] = None) -> int:
        """Scale every weight by ``factor`` and re-band demoted entries.

        Tiers are rebuilt low band first, preserving in-band recency
        order; entries demoted from a higher band land *after* the
        band's existing residents (they were reinforced more recently
        than anything that never left the band).  Returns the number of
        entries whose band changed.
        """
        factor = self.decay_factor if factor is None else factor
        if not 0.0 <= factor < 1.0:
            raise ValueError(f"decay factor must be in [0, 1), got {factor}")
        moved = 0
        top = len(self._tiers) - 1
        rebuilt: Tuple["OrderedDict[Hashable, None]", ...] = tuple(
            OrderedDict() for _ in self._tiers
        )
        for level, tier in enumerate(self._tiers):
            for key in tier:
                weight = int(self._weight[key] * factor)
                self._weight[key] = weight
                new_level = min(weight.bit_length(), top)
                if new_level != level:
                    moved += 1
                    self._tier_of[key] = new_level
                rebuilt[new_level][key] = None
        self._tiers = rebuilt
        return moved

    def on_remove(self, key: Hashable) -> None:
        level = self._tier_of.pop(key)
        del self._tiers[level][key]
        del self._weight[key]

    def victim(self) -> Optional[Hashable]:
        for tier in self._tiers:
            for key in tier:
                return key
        return None

    def clear(self) -> None:
        for tier in self._tiers:
            tier.clear()
        self._tier_of.clear()
        self._weight.clear()

    def __len__(self) -> int:
        return len(self._tier_of)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._tier_of

    def weight_of(self, key: Hashable) -> int:
        """Accumulated weight (diagnostic; 0 weight = never reinforced)."""
        return self._weight[key]


EVICTION_POLICIES: Dict[str, type] = {
    LruPolicy.name: LruPolicy,
    SharingAwarePolicy.name: SharingAwarePolicy,
}

#: Selectable policy names, in canonical A/B-comparison order.
POLICY_NAMES: Tuple[str, ...] = tuple(EVICTION_POLICIES)


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate the policy registered under ``name``."""
    cls = EVICTION_POLICIES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown eviction policy {name!r} "
            f"(known: {', '.join(POLICY_NAMES)})"
        )
    return cls()


def reseed_policy(
    policy: EvictionPolicy, entries: Iterator[Tuple[Hashable, float]]
) -> EvictionPolicy:
    """Register existing ``(key, last_used)`` pairs with a fresh policy.

    Used by ``set_eviction_policy`` when a cache swaps policies with
    entries already resident: keys are announced in ascending
    ``last_used`` order so recency-based policies start from the state
    they would have converged to.  (Accumulated weights and segment
    placements cannot be reconstructed — swap policies before a run.)
    """
    for key, last_used in sorted(entries, key=lambda pair: pair[1]):
        policy.on_insert(key, last_used)
    return policy
