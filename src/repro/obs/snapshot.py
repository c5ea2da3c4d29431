"""Periodic cache-state snapshots: occupancy, LRU ages, epoch churn.

End-of-run aggregates hide *when* a cache filled, thrashed, or drained.
A :class:`CacheSnapshot` captures the introspectable state of a cache at
one instant — per-table occupancy, the age distribution of entries
(time since last use), and how many structural mutations
(``mutation_epoch`` bumps) happened since the previous snapshot.  The
engine takes one per sweep interval; the sequence is the cache-churn
record the Flow Correlator line of work tunes against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as _np

__all__ = ["AGE_BUCKETS", "CacheSnapshot", "age_histogram", "take_snapshot"]

#: Upper bounds (seconds) of the LRU-age histogram buckets.
AGE_BUCKETS: Tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)


def age_histogram(
    last_used_times: Sequence[float],
    now: float,
    bounds: Sequence[float] = AGE_BUCKETS,
) -> List[int]:
    """Bucket ``now - used`` ages; the final slot is the overflow.

    Bucket ``i`` holds ages in ``(bounds[i-1], bounds[i]]`` (inclusive
    upper bound); the overflow slot holds ages past the last bound.
    Sorting once and taking cumulative-count differences keeps the
    per-entry work in C — this runs every sweep interval over every
    cache entry, so it is the hottest part of the snapshot cadence.
    float64 subtraction and ``searchsorted(..., side="right")`` compare
    exactly like Python floats and :func:`bisect.bisect_right`.
    """
    counts = []
    previous = 0
    ages = now - _np.asarray(last_used_times, dtype=_np.float64)
    ages.sort()
    for cumulative in _np.searchsorted(ages, bounds, side="right").tolist():
        counts.append(cumulative - previous)
        previous = cumulative
    counts.append(len(ages) - previous)
    return counts


@dataclass
class CacheSnapshot:
    """One instant of cache state.

    Attributes:
        ts: Snapshot time (trace seconds).
        cache: Cache name.
        entry_count: Entries installed across all tables.
        capacity: Total capacity.
        per_table: Entries per LTM table (empty for single-table caches).
        epoch: The cache's ``mutation_epoch`` at snapshot time.
        epoch_delta: Epoch bumps since the previous snapshot — the
            churn-rate signal (0 on the first snapshot).
        ages: LRU-age histogram counts over :data:`AGE_BUCKETS` (last
            slot = older than every bound).
    """

    ts: float
    cache: str
    entry_count: int
    capacity: int
    per_table: Tuple[int, ...] = ()
    epoch: int = 0
    epoch_delta: int = 0
    ages: List[int] = field(default_factory=list)

    @property
    def occupancy(self) -> float:
        return self.entry_count / self.capacity if self.capacity else 0.0

    def to_dict(self) -> dict:
        return {
            "ts": self.ts,
            "cache": self.cache,
            "entry_count": self.entry_count,
            "capacity": self.capacity,
            "occupancy": round(self.occupancy, 6),
            "per_table": list(self.per_table),
            "epoch": self.epoch,
            "epoch_delta": self.epoch_delta,
            "ages": list(self.ages),
        }


def take_snapshot(
    cache,
    now: float,
    name: Optional[str] = None,
    previous: Optional[CacheSnapshot] = None,
) -> CacheSnapshot:
    """Read a cache's introspection surface into a snapshot record."""
    epoch = cache.mutation_epoch
    return CacheSnapshot(
        ts=now,
        cache=name or cache.name,
        entry_count=cache.entry_count(),
        capacity=cache.capacity_total(),
        per_table=cache.per_table_counts(),
        epoch=epoch,
        epoch_delta=epoch - previous.epoch if previous is not None else 0,
        ages=age_histogram(cache.last_used_times(), now),
    )
