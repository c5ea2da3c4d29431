"""Result records produced by the end-to-end simulator."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import inf, nextafter
from typing import Dict, List, Optional, Tuple

from ..cache.base import CacheStats
from ..metrics.cpu import CpuBreakdown


class TimeSeries:
    """Windowed hit/miss counts — Fig. 18's hit-rate-over-time curves."""

    def __init__(self, window: float = 10.0):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._hits: Dict[int, int] = defaultdict(int)
        self._misses: Dict[int, int] = defaultdict(int)

    def record(self, now: float, hit: bool) -> None:
        bucket = int(now // self.window)
        if hit:
            self._hits[bucket] += 1
        else:
            self._misses[bucket] += 1

    def span(self, bucket: int) -> Tuple[float, float]:
        """``(start, end)``: the times :meth:`record` files under
        ``bucket`` are exactly those with ``start <= now < end``.

        ``now // window`` is the floor of the exact quotient, so it is
        monotone in ``now``.  The product ``bucket * window`` only
        approximates an edge, so each is moved, an ulp at a time, to
        the least float that ``//`` files in its bucket or above."""
        window = self.window

        def first(of: int) -> float:
            edge = of * window
            while edge // window >= of:
                edge = nextafter(edge, -inf)
            while edge // window < of:
                edge = nextafter(edge, inf)
            return edge

        return first(bucket), first(bucket + 1)

    def buckets(self) -> List[Tuple[float, float]]:
        """Sorted ``(window start time, hit rate)`` pairs."""
        out: List[Tuple[float, float]] = []
        for bucket in sorted(set(self._hits) | set(self._misses)):
            hits = self._hits.get(bucket, 0)
            misses = self._misses.get(bucket, 0)
            total = hits + misses
            out.append((bucket * self.window, hits / total if total else 0.0))
        return out

    def merge_from(self, other: "TimeSeries") -> "TimeSeries":
        """Interleave another series into this one (returns ``self``).

        Buckets are summed pairwise, so the merged series reads as if
        both packet streams had been recorded by one observer — the
        sharded engine's per-worker series fold.  Windows must match;
        there is no way to re-bucket whole-window counts.
        """
        if other.window != self.window:
            raise ValueError(
                f"cannot merge series with windows "
                f"{self.window} and {other.window}"
            )
        for bucket, count in other._hits.items():
            self._hits[bucket] += count
        for bucket, count in other._misses.items():
            self._misses[bucket] += count
        return self

    def hit_rate_between(self, start: float, stop: float) -> float:
        """Aggregate hit rate over the half-open time span ``[start, stop)``.

        A bucket contributes when its window ``[b, b + window)`` overlaps
        ``[start, stop)`` — so a bucket *straddling* ``stop`` (starting
        before it, ending after) **is counted in full**, and a bucket
        straddling ``start`` likewise.  Buckets beginning exactly at
        ``stop``, or ending exactly at ``start``, are excluded.  Counts
        are never prorated: the series only stores whole-bucket totals.
        """
        if stop <= start:
            return 0.0
        hits = misses = 0
        window = self.window
        for bucket in set(self._hits) | set(self._misses):
            t = bucket * window
            if t + window > start and t < stop:
                hits += self._hits.get(bucket, 0)
                misses += self._misses.get(bucket, 0)
        total = hits + misses
        return hits / total if total else 0.0


@dataclass
class SimResult:
    """Everything one simulation run produced.

    Attributes:
        system: Name of the caching system ("megaflow", "gigaflow", ...).
        stats: Final cache counters (hits/misses/insertions/evictions).
        packets: Packets simulated.
        entry_count: Cache entries installed at end of run.
        peak_entries: Maximum entries observed at any point — the paper's
            "cache entries" metric (Figs. 3b, 10, 15, 16).  For a
            *merged* result (``peak_entries_per_shard`` is set) this is
            only an **upper bound**: per-shard peaks need not be
            simultaneous, so their sum can exceed the true aggregate
            peak.  Check :attr:`peak_entries_exact` before presenting
            it as an observed value.
        peak_entries_per_shard: Per-shard (or per-switch, for fabric
            runs) exact peaks, in shard order — ``None`` for a plain
            single-engine run, where ``peak_entries`` itself is exact.
            Preserved losslessly through nested merges.
        capacity: Total cache capacity.
        avg_latency_us: Modelled mean per-packet latency.
        avg_miss_cost_us: Modelled mean slow-path cost per miss.
        cpu: Slow-path CPU cycle breakdown.
        series: Windowed hit-rate time series.
        sharing: Mean sub-traversal reuse (Gigaflow only, else None).
        cache_probes: Total classifier mask groups hashed across every
            cache lookup (hits and misses) — the TSS search-cost metric;
            identical with the fast path on or off because memoized hits
            replay the recorded probe counts.

    Telemetry is not a field: a run's telemetry record is its hub's
    :class:`~repro.obs.metrics.MetricsRegistry`, and every field here is
    identical with telemetry on or off.
    """

    system: str
    stats: CacheStats
    packets: int
    entry_count: int
    peak_entries: int
    capacity: int
    avg_latency_us: float
    avg_miss_cost_us: float
    cpu: CpuBreakdown
    series: TimeSeries
    sharing: Optional[float] = None
    cache_probes: int = 0
    peak_entries_per_shard: Optional[Tuple[int, ...]] = None

    @staticmethod
    def merge(results: "List[SimResult]") -> "SimResult":
        """Lossless aggregate of per-shard results (sharded engine).

        Semantics, pinned by ``tests/test_sharded.py``:

        * counters (stats, packets, cpu, cache_probes,
          entry/peak counts, capacity) **sum** — each shard owns a
          disjoint slice of the flow space, so its counters are disjoint
          contributions;
        * ``avg_latency_us`` / ``avg_miss_cost_us`` recombine as
          packet-/miss-weighted means (exactly the averages a single
          observer of the interleaved stream would have computed);
        * ``series`` interleaves via :meth:`TimeSeries.merge_from`;
        * ``sharing`` recombines from per-shard insertion-weighted
          reuse events (``sharing = 1 + events / insertions``).

        Telemetry merges apart, through the parts' registries
        (:meth:`~repro.obs.metrics.MetricsRegistry.merged`).

        A single-element merge returns that result unchanged, so a
        one-shard run is bit-identical to the plain engine.

        ``peak_entries`` is the only lossy field: per-shard peaks need
        not be simultaneous, so their sum is an upper bound on the true
        aggregate peak (see ``docs/sharding.md``).  The exact per-shard
        peaks are therefore preserved in ``peak_entries_per_shard``
        (flattened across nested merges, so merging is associative),
        and consumers must render the merged scalar as the bound it is
        — ``summary()`` prints ``peak_entries<=N``, and
        ``peak_entries_exact`` is the programmatic check.
        """
        if not results:
            raise ValueError("cannot merge zero results")
        if len(results) == 1:
            return results[0]
        system = results[0].system
        if any(r.system != system for r in results):
            raise ValueError(
                f"cannot merge results from different systems: "
                f"{sorted({r.system for r in results})}"
            )
        stats = results[0].stats.snapshot()
        for r in results[1:]:
            stats = stats.merged_with(r.stats)
        packets = sum(r.packets for r in results)
        misses = sum(r.stats.misses for r in results)
        series = TimeSeries(results[0].series.window)
        for r in results:
            series.merge_from(r.series)
        cpu = results[0].cpu
        for r in results[1:]:
            cpu = cpu.merged_with(r.cpu)
        # sharing = 1 + events/insertions per shard; recombine exactly
        # from the implied event counts.
        share_events = share_installs = 0.0
        sharing: Optional[float] = None
        for r in results:
            if r.sharing is not None and r.stats.insertions:
                share_events += (r.sharing - 1.0) * r.stats.insertions
                share_installs += r.stats.insertions
        if any(r.sharing is not None for r in results):
            sharing = (
                1.0 + share_events / share_installs
                if share_installs
                else 0.0
            )
        # Exact per-shard peaks survive the (lossy) scalar sum; inputs
        # that are themselves merges contribute their flattened lists,
        # keeping merge associative.
        peaks_per_shard: List[int] = []
        for r in results:
            if r.peak_entries_per_shard is not None:
                peaks_per_shard.extend(r.peak_entries_per_shard)
            else:
                peaks_per_shard.append(r.peak_entries)
        return SimResult(
            system=system,
            stats=stats,
            packets=packets,
            entry_count=sum(r.entry_count for r in results),
            peak_entries=sum(r.peak_entries for r in results),
            capacity=sum(r.capacity for r in results),
            avg_latency_us=(
                sum(r.avg_latency_us * r.packets for r in results) / packets
                if packets
                else 0.0
            ),
            avg_miss_cost_us=(
                sum(r.avg_miss_cost_us * r.stats.misses for r in results)
                / misses
                if misses
                else 0.0
            ),
            cpu=cpu,
            series=series,
            sharing=sharing,
            cache_probes=sum(r.cache_probes for r in results),
            peak_entries_per_shard=tuple(peaks_per_shard),
        )

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate

    @property
    def misses(self) -> int:
        return self.stats.misses

    @property
    def occupancy(self) -> float:
        """Peak fraction of capacity in use (Fig. 10's y-axis).

        An upper bound when :attr:`peak_entries_exact` is false (the
        per-shard peaks in the numerator need not be simultaneous).
        """
        return self.peak_entries / self.capacity if self.capacity else 0.0

    @property
    def peak_entries_exact(self) -> bool:
        """True when ``peak_entries`` is an observed simultaneous peak;
        false for merged results, where it is only an upper bound on
        the true aggregate peak."""
        return self.peak_entries_per_shard is None

    def peak_entries_label(self) -> str:
        """``peak_entries`` rendered honestly: ``=`` for an observed
        peak, ``<=`` for a merged upper bound — every CLI/bench surface
        renders through this so a bound is never presented as exact."""
        relation = "=" if self.peak_entries_exact else "<="
        return f"peak_entries{relation}{self.peak_entries}"

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.system}: hit_rate={self.hit_rate:.4f} "
            f"misses={self.misses} {self.peak_entries_label()}/"
            f"{self.capacity} avg_latency={self.avg_latency_us:.2f}us"
        )
