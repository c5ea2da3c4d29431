"""Microflow cache: OVS's exact-match first-level cache (EMC).

One entry per exact flow signature; captures temporal locality only (§2.1).
Provided for completeness and for the cache-hierarchy example; the paper's
evaluation compares Megaflow vs. Gigaflow.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..flow.actions import ActionList
from ..flow.key import FlowKey
from .base import CacheResult, FlowCache, HitReplay, actions_result
from .eviction import make_policy, reseed_policy


class _MicroflowHitReplay(HitReplay):
    """Memoized Microflow hit: the exact-match entry and its policy key."""

    __slots__ = ("cache", "key", "entry")

    def __init__(self, cache, key, entry):
        self.cache = cache
        self.key = key
        self.entry = entry

    def replay(self, now: float) -> CacheResult:
        cache = self.cache
        cache.policy.on_hit(self.key, now)
        pred = cache.timeout_predictor
        if pred is not None:
            pred.observe(self.key, now - self.entry.last_used, now)
        self.entry.last_used = now
        cache.stats.hits += 1
        return actions_result(
            self.entry.actions, groups_probed=1, tables_hit=1
        )


class MicroflowCache(FlowCache):
    """An exact-match cache from flow signature to actions.

    ``eviction`` names the capacity-eviction policy (see
    :mod:`repro.cache.eviction`); the default ``"lru"`` reproduces the
    original hard-coded LRU behaviour exactly.
    """

    name = "microflow"

    def __init__(self, capacity: int = 8192, eviction: str = "lru"):
        super().__init__()
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[Tuple[int, ...], _Entry] = {}
        self.eviction = eviction
        self.policy = make_policy(eviction, capacity)

    def set_eviction_policy(self, name: str) -> None:
        self.policy = reseed_policy(
            make_policy(name, self.capacity),
            ((key, entry.last_used)
             for key, entry in self._entries.items()),
        )
        self.eviction = name

    # -- FlowCache interface -------------------------------------------------

    def lookup(self, flow: FlowKey, now: float = 0.0) -> CacheResult:
        return self.lookup_traced(flow, now)[0]

    def lookup_traced(
        self, flow: FlowKey, now: float = 0.0
    ) -> Tuple[CacheResult, Optional[_MicroflowHitReplay]]:
        key = flow.values
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return CacheResult(hit=False, groups_probed=1), None
        self.policy.on_hit(key, now)
        pred = self.timeout_predictor
        if pred is not None:
            pred.observe(key, now - entry.last_used, now)
        entry.last_used = now
        self.stats.hits += 1
        hit = actions_result(entry.actions, groups_probed=1, tables_hit=1)
        return hit, _MicroflowHitReplay(self, key, entry)

    def install(self, flow: FlowKey, actions: ActionList, now: float = 0.0) -> bool:
        """Insert (or refresh) an exact-match entry, evicting a policy
        victim when full."""
        key = flow.values
        pred = self.timeout_predictor
        entry = self._entries.get(key)
        if entry is not None:
            self.policy.on_hit(key, now)
            self.policy.on_share(key)
            if pred is not None:
                pred.observe(key, now - entry.last_used, now)
            entry.actions = actions
            entry.last_used = now
            self.bump_epoch()
            return True
        if len(self._entries) >= self.capacity:
            victim_key = self.policy.victim()
            victim = self._entries.pop(victim_key)
            self.policy.on_remove(victim_key)
            if pred is not None:
                pred.forget(victim_key)
            self.stats.evictions += 1
            tel = self.telemetry
            if tel is not None:
                tel.on_evict(self.telemetry_name, self.policy.name)
                tel.on_victim(
                    self.telemetry_name, self.policy.name,
                    now - victim.last_used,
                )
        self._entries[key] = _Entry(actions, now)
        self.policy.on_insert(key, now)
        if pred is not None:
            pred.on_insert(key, now)
        self.stats.insertions += 1
        self.bump_epoch()
        return True

    def entry_count(self) -> int:
        return len(self._entries)

    def capacity_total(self) -> int:
        return self.capacity

    def evict_idle(self, now: float, max_idle: float) -> int:
        """Remove entries idle *strictly* longer than ``max_idle``
        (``now - last_used > max_idle``); an entry idle for exactly
        ``max_idle`` survives.  With a timeout predictor attached the
        per-entry predicted timeout replaces ``max_idle`` as the
        threshold (comparison stays strict).  Returns the number
        removed."""
        pred = self.timeout_predictor
        if pred is None:
            stale = [
                key
                for key, entry in self._entries.items()
                if now - entry.last_used > max_idle
            ]
            for key in stale:
                del self._entries[key]
                self.policy.on_remove(key)
        else:
            stale = []
            expiries = []
            for key, entry in self._entries.items():
                timeout = pred.timeout_for(key)
                idle = now - entry.last_used
                if idle > timeout:
                    stale.append(key)
                    expiries.append((key, idle, timeout))
            for key in stale:
                del self._entries[key]
                self.policy.on_remove(key)
            for key, idle, timeout in expiries:
                pred.on_expire(key, idle, now, timeout)
        self.stats.evictions += len(stale)
        if stale:
            self.bump_epoch()
            tel = self.telemetry
            if tel is not None:
                tel.on_evict(self.telemetry_name, "idle", len(stale))
        return len(stale)

    def clear(self) -> None:
        dropped = len(self._entries)
        pred = self.timeout_predictor
        if pred is not None:
            for key in self._entries:
                pred.forget(key)
        self._entries.clear()
        self.policy.clear()
        self.bump_epoch()
        tel = self.telemetry
        if tel is not None and dropped:
            tel.on_evict(self.telemetry_name, "clear", dropped)

    def last_used_times(self):
        return [entry.last_used for entry in self._entries.values()]


class _Entry:
    __slots__ = ("actions", "last_used")

    def __init__(self, actions: ActionList, now: float):
        self.actions = actions
        self.last_used = now
