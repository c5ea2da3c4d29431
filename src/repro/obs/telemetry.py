"""The telemetry facade instrumented code talks to.

One :class:`Telemetry` object owns a :class:`~repro.obs.metrics.MetricsRegistry`
(with the full metric catalog pre-registered), a
:class:`~repro.obs.trace.Tracer`, and the snapshot history.  The engine
attaches it to a caching system before a run; caches, the fast path and
revalidators then reach it through their ``telemetry`` attribute.

The contract with the hot paths:

* **Disabled is (almost) free.**  Every instrumentation site is guarded
  by ``tel = self.telemetry; if tel is not None: ...`` — with telemetry
  detached (the default) the only cost is that attribute check.
* **Observation only.**  Hooks read simulation state and write metric
  objects; they never mutate caches, so every
  :class:`~repro.sim.results.SimResult` field is bit-identical with
  telemetry on or off (``tests/test_obs.py`` proves it differentially).
* **One home per count.**  A count only the hub keeps lives in its
  registry child and is incremented there: :meth:`attach` pre-binds
  the children the per-packet path needs (depth and probe histograms,
  install counters, per-table probe and per-classifier search
  counters), and the hooks and observed sites add to their ``value`` /
  ``counts`` / ``sum`` in place, so a registry read is exact at any
  moment — except the two lookup histograms of a metrics-only run
  with the fast-path memo on, which a replayed hit reaches as a tally
  on its memo record, folded when the kernel's ``run`` returns (see
  :meth:`_bind_packet_hooks`), so they are exact between ``run``
  calls.  A count another object already keeps is not kept twice:
  hits and misses are the attached cache's ``CacheStats``, replays the
  fast-path memo's, churn and revalidation ticks the
  :class:`~repro.sim.churn.ChurnRuntime`'s, and :meth:`flush` folds
  their growth into the registry — at every sweep boundary
  (:meth:`sample`), at :meth:`finalize` and before
  ``render_telemetry`` reads the hub, so a mid-run read of a folded
  count is sweep-granular and an end-of-run read is exact.
* **One way to emit.**  A hook that traces hands ``Tracer.emit`` the
  values of its :data:`~repro.obs.trace.EVENTS` row; only the
  per-packet sites (``lookup_hit``/``lookup_miss``,
  ``fastpath_replay``, ``ltm_probe``) test the mask and append inline.
"""

from __future__ import annotations

from typing import IO, Iterable, List, Optional, Union

from .metrics import MetricsRegistry
from .snapshot import AGE_BUCKETS, CacheSnapshot, take_snapshot
from .trace import (
    EV_EVICT,
    EV_FASTPATH_INVALIDATE,
    EV_FASTPATH_REPLAY,
    EV_INSTALL,
    EV_LOOKUP_HIT,
    EV_LOOKUP_MISS,
    EV_LTM_PROBE,
    EV_MODE_SWITCH,
    EV_REVALIDATE,
    EV_SNAPSHOT,
    EV_SWEEP,
    Tracer,
    flow_id,
)

__all__ = ["Telemetry"]

#: Lookup-depth histogram bounds: tables matched along a cache lookup
#: (0 = miss without a partial chain; the paper's K is ≤ 8 throughout).
DEPTH_BUCKETS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0)

#: Classifier mask-group probes per lookup.
PROBE_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _bucket_index(bounds, value) -> int:
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


# value → bucket-index tables for the small integers the hot path sees;
# anything beyond the table falls back to the linear scan.
_DEPTH_IDX = tuple(_bucket_index(DEPTH_BUCKETS, v) for v in range(64))
_PROBE_IDX = tuple(_bucket_index(PROBE_BUCKETS, v) for v in range(512))


class Telemetry:
    """Metrics + tracing + snapshots for one simulation (or app) run.

    The per-packet hooks ``on_lookup(result, now, flow=None)``,
    ``on_fastpath_replay(now, flow, result)`` and
    ``on_ltm_probe(table_index, tag, groups, matched, now)``, and the
    histogram filer ``count_lookups(result, now=None, flow=None,
    times=1)``, are *instance* attributes: closures :meth:`attach`
    binds.  A hub serves
    one cache at a time and every hook assumes :meth:`attach` ran first
    (the packet kernel does so before anything can reach the hub).
    """

    def __init__(
        self,
        trace_capacity: int = 65536,
        tracing: bool = False,
        trace_sink: Union[None, str, IO[str]] = None,
        trace_events: Optional[Iterable[str]] = None,
        trace_sink_exclusive: bool = False,
    ):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            capacity=trace_capacity,
            enabled=tracing or trace_sink is not None,
            sink=trace_sink,
            events=trace_events,
            exclusive=trace_sink_exclusive,
        )
        self.snapshots: List[CacheSnapshot] = []
        #: Simulation clock, maintained by the engine so hooks called
        #: from deep inside caches (evictions) can timestamp events.
        self.now = 0.0
        self._name: Optional[str] = None
        self._last_snapshot: Optional[CacheSnapshot] = None

        reg = self.registry
        self._lookups = reg.counter(
            "repro_cache_lookups_total",
            "Cache lookups by outcome.",
            ("cache", "result"),
        )
        self._installs = reg.counter(
            "repro_slowpath_installs_total",
            "Slow-path traversals offered to the cache.",
            ("cache",),
        )
        self._install_rules = reg.counter(
            "repro_install_rules_total",
            "Rules generated by slow-path installs, by fate.",
            ("cache", "fate"),
        )
        self._evictions = reg.counter(
            "repro_cache_evictions_total",
            "Entries removed from the cache, by reason.",
            ("cache", "reason"),
        )
        self._victim_age = reg.histogram(
            "repro_eviction_victim_age_seconds",
            "Idle time of capacity-eviction victims when evicted.",
            AGE_BUCKETS,
            ("cache",),
        )
        self._ltm_probes = reg.counter(
            "repro_ltm_probes_total",
            "Per-LTM-table probes, by outcome.",
            ("cache", "table", "outcome"),
        )
        self._ltm_entries = reg.gauge(
            "repro_ltm_table_entries",
            "Entries currently installed per LTM table.",
            ("cache", "table"),
        )
        self._ltm_capacity = reg.gauge(
            "repro_ltm_table_capacity",
            "Capacity per LTM table.",
            ("cache", "table"),
        )
        self._depth_hist = reg.histogram(
            "repro_lookup_depth",
            "Cache tables matched per lookup (LTM chain length).",
            DEPTH_BUCKETS,
            ("cache",),
        )
        self._probe_hist = reg.histogram(
            "repro_lookup_groups_probed",
            "Classifier mask groups hashed per cache lookup.",
            PROBE_BUCKETS,
            ("cache",),
        )
        self._tss_lookups = reg.counter(
            "repro_tss_lookups_total",
            "Tuple-space classifier searches, by site.",
            ("site", "result"),
        )
        self._reval_checked = reg.counter(
            "repro_revalidation_checked_total",
            "Entries revalidated, by verdict.",
            ("cache", "verdict"),
        )
        self._reval_lookups = reg.counter(
            "repro_revalidation_lookups_total",
            "Pipeline table lookups replayed during revalidation.",
            ("cache",),
        )
        self._fp_replays = reg.counter(
            "repro_fastpath_replays_total",
            "Lookups served by the exact-match fast-path memo.",
            ("cache",),
        )
        self._fp_invalidations = reg.counter(
            "repro_fastpath_invalidations_total",
            "Stale fast-path memo records that failed validation and "
            "were dropped.",
            ("cache",),
        )
        self._fp_revalidations = reg.counter(
            "repro_fastpath_revalidations_total",
            "Stale fast-path memo records found still valid and "
            "re-stamped.",
            ("cache",),
        )
        self._fp_memo_size = reg.gauge(
            "repro_fastpath_memo_entries",
            "Fast-path memo entries at end of run.",
            ("cache",),
        )
        self._occupancy = reg.gauge(
            "repro_cache_occupancy_ratio",
            "Fraction of cache capacity in use (latest snapshot).",
            ("cache",),
            merge=("repro_cache_entries", "repro_cache_capacity"),
        )
        self._entries = reg.gauge(
            "repro_cache_entries",
            "Entries installed (latest snapshot).",
            ("cache",),
        )
        self._capacity = reg.gauge(
            "repro_cache_capacity", "Total cache capacity.", ("cache",)
        )
        self._epoch_bumps = reg.counter(
            "repro_epoch_bumps_total",
            "Structural mutations observed between snapshots.",
            ("cache",),
        )
        self._age_hist = reg.histogram(
            "repro_lru_age_seconds",
            "Entry idle ages sampled at each snapshot.",
            AGE_BUCKETS,
            ("cache",),
        )
        self._sweeps = reg.counter(
            "repro_sweeps_total", "Idle sweeps the engine ran.", ("cache",)
        )
        self._snapshots_taken = reg.counter(
            "repro_snapshots_total", "Periodic snapshots taken.", ("cache",)
        )
        self._stats = reg.gauge(
            "repro_cache_stats",
            "Final CacheStats counters mirrored per (sub-)cache.",
            ("cache", "counter"),
        )
        self._mode_switches = reg.counter(
            "repro_mode_switches_total",
            "Partitioner-mode switches the cache's governor took, by new "
            "mode.",
            ("cache", "to"),
        )
        # Control-plane churn + incremental revalidation (repro.sim.churn).
        self._churn_events = reg.counter(
            "repro_churn_events_total",
            "Control-plane churn events applied, by kind.",
            ("cache", "kind"),
        )
        self._churn_rule_ops = reg.counter(
            "repro_churn_rule_ops_total",
            "Pipeline rule mutations performed by churn events, by op.",
            ("cache", "op"),
        )
        self._reval_ticks = reg.counter(
            "repro_reval_ticks_total",
            "Incremental-revalidation ticks run on the churn cadence.",
            ("cache",),
        )
        self._reval_backlog = reg.gauge(
            "repro_reval_backlog_entries",
            "Stale entries awaiting revalidation (latest tick).",
            ("cache",),
        )

        #: ``[source, attribute, counter child, folded]`` — a count
        #: another object keeps (the attached cache's ``CacheStats``,
        #: the fast-path memo); :meth:`flush` adds its growth since
        #: ``folded`` to the child.
        self._deltas: List[list] = []
        #: The attached run's :class:`~repro.sim.churn.ChurnRuntime`
        #: (``None`` without churn) and what :meth:`flush` last folded
        #: from it, keyed by ``(family name, label)``.
        self._churn = None
        self._churn_folded: dict = {}

    # -- wiring -----------------------------------------------------------------

    def attach(self, cache, name: Optional[str] = None) -> None:
        """Wire a cache (and its sub-components) to this telemetry and
        bind the per-packet hooks."""
        self.flush()
        self._name = name = name or cache.name
        self._installs_c = self._installs.labels(name)
        self._generated_c = self._install_rules.labels(name, "generated")
        self._installed_c = self._install_rules.labels(name, "installed")
        self._deltas = []
        self._churn = None
        self._fold_from(cache.stats, "hits", self._lookups.labels(name, "hit"))
        self._fold_from(
            cache.stats, "misses", self._lookups.labels(name, "miss")
        )
        self._ltm_entries_c: List = []
        # Classifiers and LTM tables take their counter children
        # (tss_observer / ltm_observer) from here.
        cache.attach_telemetry(self, name)
        self._capacity.labels(name).set(cache.capacity_total())
        self._fp_replay_c = self._fp_replays.labels(name)
        self._fp_invalidate_c = self._fp_invalidations.labels(name)
        self._fp_revalidate_c = self._fp_revalidations.labels(name)
        # Snapshot-cadence children, pre-bound so sample() skips the
        # labels() lookups it would otherwise pay every sweep interval.
        self._occupancy_c = self._occupancy.labels(name)
        self._entries_c = self._entries.labels(name)
        self._epoch_bumps_c = self._epoch_bumps.labels(name)
        self._snapshots_taken_c = self._snapshots_taken.labels(name)
        self._age_hist_c = self._age_hist.labels(name)
        self._bind_packet_hooks()

    def _fold_from(self, source, attr: str, child) -> None:
        self._deltas.append([source, attr, child, getattr(source, attr)])

    def attach_fastpath(self, fastpath) -> None:
        """Fold fast-path replay/invalidation metrics from the memo.

        The memo already counts replays (``memo_hits``), stale records
        it re-stamped (``revalidated``) and stale records it dropped
        (``invalidations``) for its own bookkeeping, so the per-event
        ``on_fastpath_replay`` / :meth:`on_fastpath_invalidate`
        hooks don't need to run for metrics at all — :meth:`flush`
        delta-folds the memo's counters into the registry instead, and
        the engine only routes the hooks when tracing wants the events.
        """
        self._fold_from(fastpath, "memo_hits", self._fp_replay_c)
        self._fold_from(fastpath, "revalidated", self._fp_revalidate_c)
        self._fold_from(fastpath, "invalidations", self._fp_invalidate_c)

    def attach_churn(self, churn) -> None:
        """Fold the churn and reval-tick families from ``churn``.

        The :class:`~repro.sim.churn.ChurnRuntime` already counts
        applied events by kind, rule mutations by op, revalidation
        ticks and the latest backlog for its own ``digest()``;
        :meth:`flush` folds those into the registry.
        """
        self._churn = churn
        self._churn_folded = {}

    def tss_observer(self, site: str) -> tuple:
        """The ``(miss, hit)`` counter children of one classifier's
        searches, which the classifier increments inline after each
        lookup (no callback on the hot path)."""
        return (
            self._tss_lookups.labels(site, "miss"),
            self._tss_lookups.labels(site, "hit"),
        )

    def ltm_observer(self, tables) -> tuple:
        """Per-LTM-table probe counters.

        Returns ``(children, hook)``: one ``(miss, hit)`` pair of
        ``repro_ltm_probes_total`` children per table, which the
        Gigaflow chain walk increments inline, and the bound
        ``on_ltm_probe`` hook the walk calls *instead* when tracing
        wants ``ltm_probe`` events — it increments the same children
        and emits the event — or ``None`` when it does not.
        """
        name = self._name
        children = []
        for table in tables:
            index = str(table.index)
            children.append((
                self._ltm_probes.labels(name, index, "miss"),
                self._ltm_probes.labels(name, index, "hit"),
            ))
            self._ltm_capacity.labels(name, index).set(table.capacity)
            self._ltm_entries_c.append(self._ltm_entries.labels(name, index))
        tracer = self.tracer
        code = tracer.code_of(EV_LTM_PROBE)
        bit = 1 << code

        def on_ltm_probe(table_index, tag, groups, matched, now):
            children[table_index][1 if matched else 0].value += 1
            if tracer.enabled and tracer.mask & bit:
                tracer.append(
                    (now, code, name, table_index, tag, groups, matched)
                )

        self.on_ltm_probe = on_ltm_probe
        return children, on_ltm_probe if tracer.wants(EV_LTM_PROBE) else None

    # -- folding what other objects count ---------------------------------------

    def flush(self) -> None:
        """Fold the counts other objects keep into the registry
        (idempotent).

        Runs at every sweep boundary (:meth:`sample`), at
        :meth:`finalize` and before ``render_telemetry`` reads the hub;
        cheap when nothing moved, so extra calls are harmless.
        """
        for fold in self._deltas:
            source, attr, child, folded = fold
            value = getattr(source, attr)
            if value != folded:
                child.value += value - folded
                fold[3] = value
        if self._churn is not None:
            self._fold_churn()

    def _fold_churn(self) -> None:
        """:meth:`flush`'s fold of the attached churn runtime.  A child
        is made when its count first moves, so a family exports only
        the kinds, ops and caches its run actually saw."""
        churn = self._churn
        name = self._name
        folded = self._churn_folded
        counts = [
            (self._churn_events, (name, kind), events)
            for kind, events in churn.events_by_kind.items()
        ]
        counts += [
            (self._churn_rule_ops, (name, op), ops)
            for op, ops in churn.rule_ops.items()
        ]
        counts.append((self._reval_ticks, (name,), churn.reval_ticks))
        for family, labels, value in counts:
            key = (family.name,) + labels
            grown = value - folded.get(key, 0)
            if grown:
                family.labels(*labels).value += grown
                folded[key] = value
        if churn.reval_ticks:
            self._reval_backlog.labels(name).set(churn.backlog)

    # -- per-packet hooks (the hot path) ---------------------------------------

    def _bind_packet_hooks(self) -> None:
        """Build ``on_lookup``, ``count_lookups`` and
        ``on_fastpath_replay`` as closures.

        ``count_lookups(result, now=None, flow=None, times=1)`` files
        ``times`` lookups that returned ``result`` — its depth and
        probe count — into the two histogram children; a closure
        reaches them through cell variables instead of repeated
        ``self`` attribute loads.  Metrics-only, it is ``on_lookup``
        itself.  Hits and misses are not counted here: the cache's
        ``CacheStats`` counts them and :meth:`flush` folds them into
        ``repro_cache_lookups_total``.

        Metrics-only with the fast-path memo on, no hook runs per
        packet: the memo calls ``on_lookup`` for a full lookup only,
        tallies a replay on its record and folds the tallies through
        ``count_lookups``, one call per record, when ``run`` returns
        (``FastPathIndex.fold_tallies``).  So the lookup histograms
        are exact between ``run`` calls.  With the memo off the kernel
        calls ``on_lookup`` per packet.

        ``on_fastpath_replay`` only traces (replay *metrics* delta-fold
        from the memo's own counters, see :meth:`attach_fastpath`, and
        the engine only routes it when tracing wants the event).  Its
        event carries the replayed depth/probe counts and *stands in
        for* the ``lookup_hit`` the full chain walk would have logged:
        it sets a latch ``on_lookup`` sees and skips its own emission
        for, so the stream holds exactly one lookup-outcome event per
        packet.  The flow id is :func:`~repro.obs.trace.flow_id`,
        inlined.
        """
        tracer = self.tracer
        name = self._name
        depth_hist = self._depth_hist.labels(name)
        probe_hist = self._probe_hist.labels(name)
        depth_counts = depth_hist.counts
        probe_counts = probe_hist.counts
        depth_idx = _DEPTH_IDX
        probe_idx = _PROBE_IDX
        bucket_index = _bucket_index

        def count(result, now=None, flow=None, times=1):
            depth = result.tables_hit
            depth_counts[
                depth_idx[depth]
                if depth < 64
                else bucket_index(DEPTH_BUCKETS, depth)
            ] += times
            depth_hist.sum += depth * times
            probes = result.groups_probed
            probe_counts[
                probe_idx[probes]
                if probes < 512
                else bucket_index(PROBE_BUCKETS, probes)
            ] += times
            probe_hist.sum += probes * times

        # Indexed by result.hit.
        codes = (
            tracer.code_of(EV_LOOKUP_MISS), tracer.code_of(EV_LOOKUP_HIT)
        )
        bits = (1 << codes[0], 1 << codes[1])
        replay_code = tracer.code_of(EV_FASTPATH_REPLAY)
        replay_bit = 1 << replay_code
        replayed = [False]

        def on_fastpath_replay(now, flow, result):
            if tracer.enabled and tracer.mask & replay_bit:
                tracer.append(
                    (
                        now, replay_code, name,
                        hash(flow) & 0xFFFFFFFF,
                        result.tables_hit, result.groups_probed,
                    )
                )
                replayed[0] = True

        def on_lookup(result, now, flow=None):
            count(result, now, flow)
            if replayed[0]:
                # A fastpath_replay event already logged this packet's
                # outcome (with the same flow/depth/probes).
                replayed[0] = False
                return
            hit = result.hit
            if tracer.mask & bits[hit]:
                tracer.append(
                    (
                        now, codes[hit], name,
                        hash(flow) & 0xFFFFFFFF
                        if flow is not None
                        else None,
                        result.tables_hit, result.groups_probed,
                    )
                )

        # Tracer enablement is latched at construction and attach()
        # re-binds before every run, so the metrics-only hook is the
        # bare counting block: it never pays a ``tracer.enabled``
        # load-and-branch per packet.
        self.on_lookup = on_lookup if tracer.enabled else count
        self.count_lookups = count
        self.on_fastpath_replay = on_fastpath_replay

    # -- slow-path / mutation hooks --------------------------------------------

    def on_install(
        self,
        now: float,
        traversal_length: int,
        rules_generated: int,
        rules_installed: int,
    ) -> None:
        self._installs_c.value += 1
        self._generated_c.value += rules_generated
        self._installed_c.value += rules_installed
        self.tracer.emit(
            now, EV_INSTALL, self._name, traversal_length,
            rules_generated, rules_installed,
        )

    def on_victim(self, cache_name: str, age: float) -> None:
        """A capacity eviction chose a victim ``age`` seconds idle.

        Fired by every cache right before it removes its least recently
        used entry to make room (idle sweeps and revalidation removals
        do not report here); the count of such evictions is
        ``repro_cache_evictions_total{reason="lru"}``.
        """
        self._victim_age.labels(cache_name).observe(age)

    def on_evict(self, cache_name: str, reason: str, count: int = 1) -> None:
        self._evictions.labels(cache_name, reason).inc(count)
        self.tracer.emit(self.now, EV_EVICT, cache_name, reason, count)

    def on_revalidate(
        self, cache_name: str, verdict: str, lookups: int, now: float
    ) -> None:
        self._reval_checked.labels(cache_name, verdict).inc()
        self._reval_lookups.labels(cache_name).inc(lookups)
        self.tracer.emit(now, EV_REVALIDATE, cache_name, verdict, lookups)

    def on_sweep(self, now: float, evicted: int) -> None:
        self._sweeps.labels(self._name).inc()
        self.tracer.emit(now, EV_SWEEP, self._name, evicted)

    def on_mode_switch(self, now: float, old: str, new: str) -> None:
        """The cache's :class:`~repro.core.adaptive.ModeGovernor`
        switched partitioner mode (``"disjoint"`` / ``"megaflow"``)
        during the install at ``now``."""
        self._mode_switches.labels(self._name, new).inc()
        self.tracer.emit(now, EV_MODE_SWITCH, self._name, old, new)

    def on_fastpath_invalidate(self, now: float, flow) -> None:
        """A stale memo record failed validation and was dropped (trace
        only: the metric delta-folds from the memo, see
        :meth:`attach_fastpath`)."""
        self.tracer.emit(
            now, EV_FASTPATH_INVALIDATE, self._name, flow_id(flow)
        )

    # -- snapshots --------------------------------------------------------------

    def sample(self, cache, now: float) -> CacheSnapshot:
        """Take one periodic snapshot and mirror it into the registry."""
        self.flush()
        name = self._name
        snapshot = take_snapshot(cache, now, name, self._last_snapshot)
        self._last_snapshot = snapshot
        self.snapshots.append(snapshot)
        occupancy = round(snapshot.occupancy, 6)
        self._occupancy_c.set(occupancy)
        self._entries_c.set(snapshot.entry_count)
        self._epoch_bumps_c.inc(snapshot.epoch_delta)
        self._snapshots_taken_c.inc()
        ages = snapshot.ages
        if any(ages):
            value_sum = 0.0
            for bound_index, count in enumerate(ages):
                if count:
                    value_sum += count * (
                        AGE_BUCKETS[bound_index]
                        if bound_index < len(AGE_BUCKETS)
                        else AGE_BUCKETS[-1] * 2
                    )
            self._age_hist_c.observe_bucketed(ages, value_sum)
        for index, entries in enumerate(snapshot.per_table):
            self._ltm_entries_c[index].set(entries)
        tracer = self.tracer
        if tracer.enabled:  # spares metrics-only sweeps the list copies
            tracer.emit(
                now, EV_SNAPSHOT, name, snapshot.entry_count,
                snapshot.capacity, occupancy, list(snapshot.per_table),
                snapshot.epoch, snapshot.epoch_delta, list(ages),
            )
            # Sweep-cadence sink flush: bounds how many buffered events
            # an abandoned tracer can lose to a crash.
            tracer.flush()
        return snapshot

    def finalize(self, cache, now: float, fastpath=None) -> None:
        """Final snapshot plus end-of-run gauges (stats mirror, memo)."""
        self.sample(cache, now)
        for sub_name, stats in _walk_stats(cache, self._name):
            for counter in (
                "hits", "misses", "insertions", "rejected", "evictions"
            ):
                self._stats.labels(sub_name, counter).set(
                    getattr(stats, counter)
                )
        if fastpath is not None:
            self._fp_memo_size.labels(self._name).set(len(fastpath))

    def close(self) -> None:
        self.tracer.close()

    def derive(self, suffix: str) -> "Telemetry":
        """A fresh child hub mirroring this hub's tracer settings (ring
        capacity, enablement, event mask) — one per shard worker or
        fabric switch.

        When this hub's sink was opened from a *path* (``sink_path`` is
        set), the child gets its own derived sink at
        ``<path>.<suffix>``, opened by whoever calls this — inside the
        worker process for sharded runs, so no file descriptor is
        shared across the fork.  Caller-owned IO sinks (``sink_path``
        is ``None``) stay parent-only: a forked file object would
        interleave garbage.

        Derived sinks open *exclusively*: a pre-existing
        ``<path>.<suffix>`` (stale output from an earlier run that
        would otherwise be silently truncated — or worse, silently
        *mixed in* by downstream ``repro trace`` globbing) or an
        unwritable directory raises
        :class:`~repro.obs.trace.TraceSinkError` before the run starts
        instead of dying mid-run.
        """
        parent = self.tracer
        return Telemetry(
            trace_capacity=parent.capacity,
            tracing=parent.enabled,
            trace_sink=(
                f"{parent.sink_path}.{suffix}"
                if parent.sink_path is not None
                else None
            ),
            trace_events=parent.event_filter,
            trace_sink_exclusive=True,
        )


def _walk_stats(cache, name: str):
    """Yield ``(qualified name, CacheStats)`` for a cache and sub-caches."""
    yield name, cache.stats
    for level_name, level in cache.levels():
        yield f"{name}.{level_name}", level.stats
