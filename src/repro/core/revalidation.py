"""Cache revalidation: keeping cached rules consistent with the pipeline (§4.3).

Revalidation replays each entry's parent flow through the vSwitch pipeline
(from the entry's table tag, for the length of its sub-traversal) and
compares the regenerated rule to the stored one; entries whose match or
actions changed are evicted.  An entry none of whose tables changed
since its last agreeing walk is consistent without a replay
(:class:`_Revalidator`).  Because Gigaflow replays *sub-traversals*,
which are shorter than the full traversals Megaflow must replay, its
revalidation is roughly the partition factor faster (the 2× of §6.3.6).

Two driving modes share the per-entry check:

* :meth:`MegaflowRevalidator.revalidate` / :meth:`GigaflowRevalidator.revalidate`
  sweep the whole cache in one pass — the batch mode examples and the
  ``repro stats`` command use.
* :class:`IncrementalRevalidator` processes up to a fixed *budget* of
  stale entries per call, the way OVS's revalidator threads chip away at
  a dump between traffic bursts.  The set of live entries whose
  ``generation`` lags :attr:`~repro.pipeline.pipeline.Pipeline.generation`
  is the **revalidation backlog** — the serving mode's headline churn
  metric: it drains while the budget outpaces control-plane churn and
  grows when churn wins.

Idle expiry — the OVS revalidator's other job (§4.3.2) — is the caches'
own :meth:`~repro.cache.base.FlowCache.evict_idle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from ..cache.megaflow import MegaflowCache, build_megaflow_entry
from ..core.gigaflow import GigaflowCache
from ..core.rulegen import build_ltm_rule
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


def _check_all(impl, entries: Iterable, now: float) -> RevalidationReport:
    """Run ``impl.check_entry`` over ``entries`` — one revalidation
    cycle."""
    report = RevalidationReport()
    for entry in entries:
        verdict, lookups = impl.check_entry(entry, now)
        report.entries_checked += 1
        report.lookups_performed += lookups
        if verdict == "evicted":
            report.entries_evicted += 1
    return report


class _Revalidator:
    """The per-entry check both revalidators share.

    A replay can only come out differently if a rule changed in a table
    it visits.  An entry stamped with the tables its last agreeing walk
    visited (``path``) and that walk's generation (``verified``), none
    of which changed since, is ``consistent`` without a replay: it is
    charged the lookups the replay would have made, and re-stamped as
    the replay would have done.  Any other entry, an unstamped one
    included, is replayed; a replay that agrees re-stamps it.
    """

    def __init__(self, pipeline: Pipeline, cache):
        self.pipeline = pipeline
        self.cache = cache

    def check_entry(self, entry, now: float) -> Tuple[str, int]:
        """Check one entry; evict if stale.  Returns (verdict, lookups).

        An eviction bumps the cache's mutation epoch, which is what
        keeps it visible to the fast-path memo.
        """
        pipeline = self.pipeline
        generation = pipeline.generation
        verified = entry.verified
        if verified is not None and pipeline.unchanged_since(
            entry.path, verified
        ):
            lookups = len(entry.path)
            verdict = "consistent"
        else:
            replay = pipeline.replay(
                entry.parent_flow, self._start(entry), entry.length
            )
            lookups = len(replay)
            if self._agrees(entry, replay, now):
                entry.path = replay.table_ids
                verdict = "consistent"
            else:
                self._evict(entry)
                verdict = "evicted"
        if verdict == "consistent":
            entry.generation = generation
            entry.verified = generation
        tel = self.cache.telemetry
        if tel is not None:
            tel.on_revalidate(self.cache.telemetry_name, verdict, lookups, now)
        return verdict, lookups

    def revalidate(self, now: float = 0.0) -> RevalidationReport:
        return _check_all(self, list(self.cache), now)


class MegaflowRevalidator(_Revalidator):
    """Replays full traversals to validate Megaflow entries."""

    def _start(self, entry) -> int:
        return entry.start_table

    def _agrees(self, entry, replay, now: float) -> bool:
        regenerated = build_megaflow_entry(
            replay, entry.start_table, self.pipeline.generation, now
        )
        return (
            regenerated.match == entry.match
            and regenerated.actions == entry.actions
        )

    def _evict(self, entry) -> None:
        self.cache.remove(entry, reason="reval")


class GigaflowRevalidator(_Revalidator):
    """Replays sub-traversals to validate LTM rules (§4.3.1)."""

    def _start(self, rule) -> int:
        return rule.tag

    def _agrees(self, rule, replay, now: float) -> bool:
        if len(replay) != rule.length:
            # The path from this tag got shorter — stale.
            return False
        regenerated = build_ltm_rule(
            replay.sub(0, len(replay)), self.pipeline.generation, now
        )
        return (
            regenerated.match == rule.match
            and regenerated.actions == rule.actions
            and regenerated.next_tag == rule.next_tag
        )

    def _evict(self, rule) -> None:
        self.cache.remove_rule(rule)


def resolve_revalidator(pipeline: Pipeline, cache):
    """The revalidator matching ``cache``'s type.

    Gigaflow (including the adaptive subclass) gets the sub-traversal
    replayer, Megaflow the full-traversal one.  The OVS hierarchy has no
    single replay unit (microflow entries are derived), so it is not
    supported — callers gate churn-bearing configs on this error.
    """
    if isinstance(cache, GigaflowCache):
        return GigaflowRevalidator(pipeline, cache)
    if isinstance(cache, MegaflowCache):
        return MegaflowRevalidator(pipeline, cache)
    raise TypeError(
        f"no revalidator for {type(cache).__name__}: incremental "
        "revalidation (and control-plane churn) supports Megaflow and "
        "Gigaflow caches"
    )


class IncrementalRevalidator:
    """Budgeted revalidation with an observable backlog.

    The backlog is *defined* as the live entries whose ``generation``
    lags the pipeline's — no shadow queue to fall out of sync with
    capacity/idle evictions, and entries evicted for other reasons
    leave the backlog for free.  :meth:`process` checks up to ``budget``
    stale entries (in cache iteration order, which is deterministic for
    identical histories — the driver differentials rely on
    that) and reports how many remain.
    """

    def __init__(self, pipeline: Pipeline, cache):
        self.pipeline = pipeline
        self.cache = cache
        self.impl = resolve_revalidator(pipeline, cache)
        #: Generation up to which the cache is known fully revalidated;
        #: lets churn-free stretches skip the stale scan entirely.
        self._clean_generation = pipeline.generation
        self.total_checked = 0
        self.total_evicted = 0
        self.total_lookups = 0

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
        report = _check_all(self.impl, batch, now)
        backlog_after = len(stale) - len(batch)
        if backlog_after == 0:
            self._clean_generation = self.pipeline.generation
        self.total_checked += report.entries_checked
        self.total_evicted += report.entries_evicted
        self.total_lookups += report.lookups_performed
        return report, backlog_after

