"""Cache revalidation: keeping cached rules consistent with the pipeline (§4.3).

Revalidation replays each entry's parent flow through the vSwitch pipeline
(from where the entry starts, for the length of its traversal) and
compares the entry rebuilt from that replay to the stored one; entries
whose match or actions changed are evicted.  One check serves every
cache whose entries are traversals: the cache says where an entry's
replay starts and whether a replay rebuilds it unchanged
(:meth:`~repro.cache.base.FlowCache.replay_start`,
:meth:`~repro.cache.base.FlowCache.replay_agrees`), and removes it
through :meth:`~repro.cache.base.FlowCache.remove`.  A Megaflow entry
is a whole traversal, an LTM rule a sub-traversal; because Gigaflow
replays the shorter *sub-traversals*, its revalidation is roughly the
partition factor faster (the 2× of §6.3.6).  An entry none of whose
tables changed since its last agreeing walk is consistent without a
replay (:meth:`IncrementalRevalidator.check_entry`).

:class:`IncrementalRevalidator` drives the check two ways:

* :meth:`~IncrementalRevalidator.revalidate` sweeps the whole cache in
  one pass — the batch mode the examples, §6.3.6 and the ``repro
  stats`` command use.
* :meth:`~IncrementalRevalidator.process` checks up to a fixed *budget*
  of stale entries per call, the way OVS's revalidator threads chip
  away at a dump between traffic bursts.  The set of live entries whose
  ``generation`` lags
  :attr:`~repro.pipeline.pipeline.Pipeline.generation` is the
  **revalidation backlog** — the serving mode's headline churn metric:
  it drains while the budget outpaces control-plane churn and grows
  when churn wins.

Idle expiry — the OVS revalidator's other job (§4.3.2) — is the caches'
own :meth:`~repro.cache.base.FlowCache.evict_idle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from ..pipeline.pipeline import Pipeline


@dataclass
class RevalidationReport:
    """Outcome and cost of one revalidation cycle.

    Attributes:
        entries_checked: Entries replayed.
        entries_evicted: Entries found inconsistent and removed.
        lookups_performed: Total pipeline table lookups replayed — the
            cycle's cost driver (Gigaflow's are ~2× fewer than Megaflow's
            for the same cached traffic because sub-traversals are short).
    """

    entries_checked: int = 0
    entries_evicted: int = 0
    lookups_performed: int = 0


class IncrementalRevalidator:
    """Revalidation of one cache, budgeted, with an observable backlog.

    The backlog is *defined* as the live entries whose ``generation``
    lags the pipeline's — no shadow queue to fall out of sync with
    capacity/idle evictions, and entries evicted for other reasons
    leave the backlog for free.  :meth:`process` checks up to ``budget``
    stale entries (in cache iteration order, which is deterministic for
    identical histories — the driver differentials rely on
    that) and reports how many remain; :meth:`revalidate` checks every
    entry once.

    Only a cache that :attr:`~repro.cache.base.FlowCache.revalidates`
    can be built on: the OVS hierarchy has no single replay unit
    (Microflow entries are derived), so it raises ``TypeError`` here,
    and churn-bearing configs fail before their run.
    """

    def __init__(self, pipeline: Pipeline, cache):
        if not cache.revalidates:
            raise TypeError(
                f"no revalidator for {type(cache).__name__}: incremental "
                "revalidation (and control-plane churn) supports Megaflow "
                "and Gigaflow caches"
            )
        self.pipeline = pipeline
        self.cache = cache
        #: Generation up to which the cache is known fully revalidated;
        #: lets churn-free stretches skip the stale scan entirely.
        self._clean_generation = pipeline.generation
        self.total_checked = 0
        self.total_evicted = 0
        self.total_lookups = 0

    def check_entry(self, entry, now: float) -> Tuple[str, int]:
        """Check one entry; evict if stale.  Returns (verdict, lookups).

        A replay can only come out differently if a rule changed in a
        table it visits.  An entry stamped with the tables its last
        agreeing walk visited (``path``) and that walk's generation
        (``verified``), none of which changed since, is ``consistent``
        without a replay: it is charged the lookups the replay would
        have made, and re-stamped as the replay would have done.  Any
        other entry, an unstamped one included, is replayed; a replay
        that agrees re-stamps it.  An eviction bumps the cache's
        mutation epoch, which is what keeps it visible to the fast-path
        memo.
        """
        pipeline = self.pipeline
        cache = self.cache
        generation = pipeline.generation
        verified = entry.verified
        if verified is not None and pipeline.unchanged_since(
            entry.path, verified
        ):
            lookups = len(entry.path)
            verdict = "consistent"
        else:
            replay = pipeline.replay(
                entry.parent_flow, cache.replay_start(entry), entry.length
            )
            lookups = len(replay)
            if cache.replay_agrees(entry, replay):
                entry.path = replay.table_ids
                verdict = "consistent"
            else:
                cache.remove(entry, "reval")
                verdict = "evicted"
        if verdict == "consistent":
            entry.generation = generation
            entry.verified = generation
        tel = cache.telemetry
        if tel is not None:
            tel.on_revalidate(cache.telemetry_name, verdict, lookups, now)
        return verdict, lookups

    def _check(self, entries: Iterable, now: float) -> RevalidationReport:
        """Run :meth:`check_entry` over ``entries`` — one cycle."""
        report = RevalidationReport()
        for entry in entries:
            verdict, lookups = self.check_entry(entry, now)
            report.entries_checked += 1
            report.lookups_performed += lookups
            if verdict == "evicted":
                report.entries_evicted += 1
        return report

    def revalidate(self, now: float = 0.0) -> RevalidationReport:
        """Check every resident entry once — a full pass."""
        return self._check(list(self.cache), now)

    def stale_entries(self) -> List:
        generation = self.pipeline.generation
        if generation == self._clean_generation:
            return []
        return [
            entry
            for entry in self.cache
            if entry.generation < generation
        ]

    def backlog(self) -> int:
        """Live entries still awaiting revalidation."""
        return len(self.stale_entries())

    def process(
        self, now: float = 0.0, budget: int = 0
    ) -> Tuple[RevalidationReport, int]:
        """Check up to ``budget`` stale entries (0 = no limit).

        Returns ``(report, backlog_after)`` where ``backlog_after``
        counts the stale entries left for future ticks.
        """
        stale = self.stale_entries()
        batch = stale if budget <= 0 else stale[:budget]
        report = self._check(batch, now)
        backlog_after = len(stale) - len(batch)
        if backlog_after == 0:
            self._clean_generation = self.pipeline.generation
        self.total_checked += report.entries_checked
        self.total_evicted += report.entries_evicted
        self.total_lookups += report.lookups_performed
        return report, backlog_after
