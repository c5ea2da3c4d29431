"""Metric-faithful exact-match fast path for the simulator's hot loop.

Replaying a trace spends almost all of its time re-probing TSS mask
groups for flow signatures it has already resolved: once a packet of a
flow has hit the cache, every later packet of the same flow re-runs the
identical wildcard search (up to K LTM tables' worth) just to rediscover
the same rule chain.  OVS front-ends its wildcard cache with an
exact-match cache for exactly this reason; TupleChain (arXiv:2408.04390)
and Flow Correlator (arXiv:2305.02918) both identify lookup cost — not
install cost — as the throughput lever.

:class:`FastPathIndex` memoizes, per exact flow signature (``flow.packed``,
the one integer the classifier and the pipeline's traversal memo key by
too), the :class:`~repro.cache.base.HitReplay` record of the first full
lookup — every cache's record has one shape: the ``touches`` of the
entries the hit used (each with its cache's bound ``move_to_end``), the
:class:`~repro.cache.base.CacheStats` it counts in, and the result the
lookup returned, with its ``groups_probed`` / ``tables_hit`` counts.
Repeat packets replay the record — the same ``last_used`` writes and
LRU moves, the same hit counters, and the kept result handed out again
— so every simulator metric (hit/miss stats, idle expiry, LRU eviction
order, Fig. 11 sharing, latency, CPU breakdown) is *bit-identical* with
the fast path on or off.  :meth:`FastPathIndex.lookup` replays a usable
record in its own body, so a memoized hit is one Python call however
long its rule chain.

That holds with metrics-only telemetry too.  The lookup depth and probe
histograms are functions of the result, which a replay hands out
unchanged, so a replay only adds one to its record's ``tally``;
:meth:`FastPathIndex.fold_tallies` files each tallied record with one
call when the packet kernel's ``run`` returns, and a tally is filed
early when its record's result is about to change or its record to
go (a re-charge, an invalidation, a memo clear).  A full lookup is
filed directly, once.

Correctness hinges on a record never outliving what its lookup
depended on.  Every structural cache mutation (install, eviction, idle
sweep, ``clear()``, revalidation) bumps
:attr:`~repro.cache.base.FlowCache.mutation_epoch`, and a record made
or last validated at epoch *e* replays unchecked while the cache is
still at *e* — the O(1) "nothing at all changed" shortcut a steady
trace lives on.  A record whose epoch is stale is **re-validated**, at
lookup time, by :meth:`~repro.cache.base.HitReplay.still_valid`: a
Gigaflow record re-runs each LTM lookup its walk made in a bucket that
changed since (a per-tag change counter says which), and is valid
exactly when every re-run finds the same winner — then it takes the
re-runs' probe counts, is re-stamped and replayed; otherwise it is
dropped and the full lookup runs.  A re-run is the bucket's own
climb, one call.  A Microflow, Megaflow or hierarchy record
(:class:`~repro.cache.base.EntryHitReplay`) re-runs its cache's one
search — the exact-match index, or the Megaflow classifier's climb —
and is valid exactly when it finds the same entry holding the same
actions object, re-charged when the climb's probe count moved.
Validation is lazy on purpose: the start-tag bucket
of table 0 is probed by every record, so an eager scheme would visit
all of them on every install and eviction whether or not those flows
ever send another packet.  Lookups whose own side effects mutate the
cache (e.g. a hierarchy hit that promotes into the Microflow level) are
never memoized — the epoch moved during the lookup.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cache.base import CacheResult, FlowCache, HitReplay
from ..flow.key import FlowKey

#: Memo size bound: the memo is dropped wholesale when it would grow
#: past this (a full rebuild is cheap relative to the lookups it saves,
#: and the bound is far above any realistic flow count).
MEMO_ENTRIES = 1 << 20


class FastPathIndex:
    """Exact-match memo of cache-hit side effects, validated against
    what each hit depended on.

    :meth:`~repro.sim.engine.PacketKernel.run` calls :meth:`lookup`
    once per packet; it replays a usable record in its own body.

    Attributes:
        cache: The cache whose lookups are being memoized.
        memo_hits: Lookups served by replaying a memoized record.
        memo_misses: Lookups that ran the full cache search.
        revalidated: Records found still valid after their epoch went
            stale, re-stamped and replayed (counted in ``memo_hits``
            too).
        invalidations: Stale records that failed validation and were
            dropped.
    """

    def __init__(self, cache: FlowCache, telemetry=None, metrics=None):
        self.cache = cache
        #: Hub whose ``fastpath_replay`` / ``fastpath_invalidate`` hooks
        #: this index calls, or ``None`` (the engine hands one over only
        #: when tracing wants either event).
        self.telemetry = telemetry
        #: Metrics-only hub whose lookup histograms this index files
        #: into, or ``None`` (the engine hands one over when telemetry
        #: is on and not tracing): a full lookup through its
        #: ``on_lookup``, a replay as a tally on its record, which
        #: :meth:`fold_tallies` files.
        self.metrics = metrics
        #: Records whose ``tally`` may be non-zero, in the order they
        #: were first tallied since the last fold (a record whose tally
        #: was filed early stays listed, at 0); ``None`` without
        #: :attr:`metrics`.
        self._tallied: Optional[List[HitReplay]] = (
            [] if metrics is not None else None
        )
        #: packed flow → its :class:`~repro.cache.base.HitReplay`
        #: record.
        self._memo: Dict[int, HitReplay] = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self.revalidated = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._memo)

    def lookup(self, flow: FlowKey, now: float = 0.0) -> CacheResult:
        """Serve a lookup from the memo when possible, else run (and
        memoize) the full cache lookup.

        A usable record is replayed right here — the same writes as
        :func:`~repro.cache.base.apply_hit`, inlined — so a memoized
        hit costs this one call and no other frame, with metrics-only
        telemetry too: the replay is tallied on its record."""
        cache = self.cache
        epoch = cache.mutation_epoch
        signature = flow.packed
        memo = self._memo
        record = memo.get(signature)
        tel = self.telemetry
        tallied = self._tallied
        if record is not None and record.epoch != epoch:
            kept = record.result
            valid = record.still_valid()
            if record.tally and (not valid or record.result is not kept):
                # File the replays of a result re-charged or dropped.
                self.metrics.count_lookups(kept, times=record.tally)
                record.tally = 0
            if valid:
                record.epoch = epoch
                self.revalidated += 1
            else:
                del memo[signature]
                self.invalidations += 1
                if tel is not None:
                    tel.on_fastpath_invalidate(now, flow)
                record = None
        if record is not None:
            self.memo_hits += 1
            for entry, move_to_recent, key in record.touches:
                entry.last_used = now
                move_to_recent(key)
            for stats in record.stats:
                stats.hits += 1
            if tallied is not None:
                if record.tally:
                    record.tally += 1
                else:
                    record.tally = 1
                    tallied.append(record)
            result = record.result
            # The replay hook only emits a trace event, so the engine
            # hands this index a hub only when tracing wants it:
            # metrics-only runs are spared a call per replayed packet.
            if tel is not None:
                tel.on_fastpath_replay(now, flow, result)
            return result
        self.memo_misses += 1
        result, record = cache.lookup_traced(flow, now)
        if tallied is not None:
            self.metrics.on_lookup(result, now, flow)
        # Memoize only side-effect-free hits: if the lookup itself moved
        # the epoch (e.g. hierarchy promotion), the record is already
        # stale and replaying it would diverge from the full path.
        if record is not None and cache.mutation_epoch == epoch:
            if len(memo) >= MEMO_ENTRIES:
                self.clear()
            record.epoch = epoch
            memo[signature] = record
        return result

    def fold_tallies(self) -> None:
        """File every tallied replay into :attr:`metrics`' lookup
        histograms, one ``count_lookups`` call per record, and zero the
        tallies.  The packet kernel calls this when ``run`` returns."""
        tallied = self._tallied
        if tallied:
            count_lookups = self.metrics.count_lookups
            for record in tallied:
                times = record.tally
                if times:
                    record.tally = 0
                    count_lookups(record.result, times=times)
            tallied.clear()

    def clear(self) -> None:
        """Drop every memoized record, its tally filed first (counters
        are preserved)."""
        self.fold_tallies()
        self._memo.clear()

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0
