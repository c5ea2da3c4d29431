"""The Gigaflow cache: K feed-forward LTM tables on the SmartNIC (§4).

Lookup chains a packet through the tables in order, carrying the table tag
``τ`` in metadata: each table either advances the packet along its expected
traversal (a tag+ternary hit) or passes it through unchanged.  The packet
is a cache hit when the tag reaches :data:`~repro.core.ltm.TAG_DONE` —
i.e. some chain of cached sub-traversals reproduced a complete slow-path
traversal.  Install partitions a freshly-traced traversal (disjoint
partitioning by default), converts the slices to LTM rules, and places
them into strictly increasing tables, *reusing* identical rules already
installed by other traversals — the sharing that gives Gigaflow its
coverage (Fig. 5c).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

from ..cache.base import (
    CacheResult,
    FlowCache,
    HitReplay,
    apply_hit,
    check_eviction,
)
from ..flow.actions import Action, ActionList
from ..flow.key import FlowKey
from ..pipeline.pipeline import ENTRY_TABLE
from ..pipeline.traversal import Traversal
from .ltm import TAG_DONE, LtmRule, LtmTable
from .partition import Partitioner, disjoint_partition
from .rulegen import build_ltm_rule, build_ltm_rules


@dataclass
class InstallOutcome:
    """What happened when a traversal was offered to the cache.

    Attributes:
        installed: Rules newly inserted.
        reused: Rules shared with previously-installed traversals.
        rejected: Rules that found no feasible table with free space
            (0 exactly when the full chain, entry tag → DONE, is cached).
        generated: Rules the partition produced (placement stops at the
            first rejection, so the three counts above can sum to less).
    """

    installed: int = 0
    reused: int = 0
    rejected: int = 0
    generated: int = 0


class _GigaflowHitReplay(HitReplay):
    """Memoized Gigaflow hit: the one record shape
    (:class:`~repro.cache.base.HitReplay`), whose ``touches`` hold, per
    matched rule, the rule, its table's
    :attr:`~repro.core.ltm.LtmTable.move_to_recent` and the rule id,
    plus each LTM lookup the walk made, which :meth:`still_valid`
    re-runs.

    ``steps`` is flat, seven slots per visited table: the tag's
    :class:`~repro.core.ltm.TagDependency` and its change count as last
    validated, the table, the tag, the flow as it entered the table,
    the winner there (``None``: passed through) and the groups the
    lookup probed.
    """

    __slots__ = ("steps",)

    def __init__(self, touches, stats, steps, result):
        # HitReplay.__init__'s body, without its frame: a record is
        # made on every full-lookup hit.
        self.touches = touches
        self.stats = stats
        self.steps = steps
        self.result = result
        self.tally = 0

    def still_valid(self) -> bool:
        """A full walk now would find the same chain: every lookup of a
        bucket that changed since, re-run, finds the same winner.  The
        re-runs' probe counts replace the old ones, so the record
        charges what the walk would.  A re-run is the bucket's own
        :meth:`~repro.classify.tss.TupleSpaceClassifier.climb`, the
        search :meth:`~repro.core.ltm.LtmTable.lookup` makes, called
        here without that wrapper (a tag whose bucket has emptied finds
        nothing and probes nothing, as there).  Re-runs emit no
        ``ltm_probe``."""
        steps = self.steps
        charge = 0
        for at in range(0, len(steps), 7):
            changes = steps[at].changes
            if changes != steps[at + 1]:
                bucket = steps[at + 2].buckets.get(steps[at + 3])
                if bucket is None:
                    winner, groups = None, 0
                else:
                    winner, groups = bucket.climb(steps[at + 4].packed)
                if winner is not steps[at + 5]:
                    return False
                steps[at + 1] = changes
                # Each visited table is charged max(groups, 1).
                charge += max(groups, 1) - max(steps[at + 6], 1)
                steps[at + 6] = groups
        if charge:
            kept = self.result
            self.result = CacheResult(
                hit=True,
                actions=kept.actions,
                output_port=kept.output_port,
                groups_probed=kept.groups_probed + charge,
                tables_hit=kept.tables_hit,
            )
        return True


class GigaflowCache(FlowCache):
    """A multi-table sub-traversal cache.

    A packet enters it with ``τ`` = the pipeline's entry table
    (:data:`~repro.pipeline.pipeline.ENTRY_TABLE`), the tag every
    chain's first rule matches.

    Attributes:
        num_tables: ``K`` — cache tables on the SmartNIC (paper default 4).
        table_capacity: Entries per table (paper default 8K).
        partitioner: Scheme splitting traversals into sub-traversals
            (default: the paper's disjoint partitioning).
        placement: ``"balanced"`` places new rules in the feasible table
            with the most free slots; ``"earliest"`` packs tables front to
            back.
        eviction: ``"lru"`` — when every feasible table is full, the
            least recently used rule among them is evicted (mirroring
            the OVS revalidator's behaviour under pressure);
            ``"reject"`` refuses the install instead (the paper's
            ``GF_k not full`` formulation relies on idle expiry alone).

    A rule's recency is the hits it served: only a lookup whose chain
    reaches ``TAG_DONE`` touches the rules it matched.  A walk that
    dead-ends — eviction took a later segment, so the surviving head
    matches and leads nowhere — leaves them as they were, and the
    stranded head ages out under LRU and ``max_idle`` like any unused
    rule (``docs/eviction.md``).
    """

    name = "gigaflow"
    revalidates = True

    def __init__(
        self,
        num_tables: int = 4,
        table_capacity: int = 8192,
        partitioner: Partitioner = disjoint_partition,
        placement: str = "balanced",
        eviction: str = "lru",
    ):
        super().__init__()
        if num_tables < 1:
            raise ValueError(f"need at least one table, got {num_tables}")
        if placement not in ("balanced", "earliest"):
            raise ValueError(f"unknown placement policy {placement!r}")
        self.partitioner = partitioner
        self.placement = placement
        self.eviction = check_eviction(eviction)
        self.tables: Tuple[LtmTable, ...] = tuple(
            LtmTable(i, table_capacity) for i in range(num_tables)
        )
        #: Cumulative sharing events (a rule reused by another traversal).
        self.sharing_events = 0
        # Per-probe accounting is the hottest telemetry site in the walk:
        # lookups increment the hub's ``(miss, hit)`` counter children
        # per table directly and only pay the ``on_ltm_probe`` hook call
        # when tracing wants the event (the hook increments the same
        # children itself, so the paths are exclusive).
        self._probe_counters = None
        self._trace_probe = None

    # -- lookup (the SmartNIC fast path) -----------------------------------------

    def lookup_traced(
        self, flow: FlowKey, now: float = 0.0
    ) -> Tuple[CacheResult, Optional[_GigaflowHitReplay]]:
        tag = ENTRY_TABLE
        current = flow
        composed: List[Action] = []
        touches: list = []
        steps: list = []
        probes = 0
        counters = self._probe_counters
        trace_probe = self._trace_probe
        for table in self.tables:
            if tag == TAG_DONE:
                break
            rule, groups = table.lookup(current, tag)
            probes += max(groups, 1)
            if trace_probe is not None:
                trace_probe(
                    table.index, tag, groups, rule is not None, now
                )
            elif counters is not None:
                counters[table.index][1 if rule is not None else 0].value += 1
            dependency = table.dependencies[tag]
            steps += (
                dependency, dependency.changes, table, tag, current, rule,
                groups,
            )
            if rule is None:
                continue  # pass-through: not this packet's next segment
            touches.append((rule, table.move_to_recent, rule.rule_id))
            composed.extend(rule.actions)
            current = rule.actions.apply(current)
            tag = rule.next_tag
        if tag == TAG_DONE:
            actions = ActionList(composed)
            result = CacheResult(
                hit=True,
                actions=actions,
                output_port=actions.output_port(),
                groups_probed=probes,
                tables_hit=len(touches),
            )
            record = _GigaflowHitReplay(
                touches, self.hit_stats, steps, result
            )
            return apply_hit(record, now), record
        self.stats.misses += 1
        return (
            CacheResult(
                hit=False, groups_probed=probes, tables_hit=len(touches)
            ),
            None,
        )

    # -- install (the slow-path upcall) ---------------------------------------------

    def install_traversal(
        self,
        traversal: Traversal,
        generation: int = 0,
        now: float = 0.0,
    ) -> InstallOutcome:
        """Partition a traced traversal and install its LTM rules."""
        available = sum(1 for t in self.tables if not t.is_full)
        max_parts = min(len(self.tables), max(available, 1))
        partition = self.partitioner(traversal, max_parts)
        rules = build_ltm_rules(partition, generation, now)
        return self.install_rules(rules)

    def install_rules(self, rules: Sequence[LtmRule]) -> InstallOutcome:
        """Place ordered LTM rules into strictly increasing tables.

        Rule ``i`` of ``m`` may land in table indices
        ``[prev + 1, K - m + i]`` — the window that leaves room for the
        remaining rules.  An identical rule anywhere in the window is
        reused; otherwise the rule goes to a table with free space per the
        placement policy.
        """
        k = len(self.tables)
        m = len(rules)
        outcome = InstallOutcome(generated=m)
        if m > k:
            raise ValueError(
                f"{m} sub-traversals cannot map onto {k} cache tables"
            )
        prev = -1
        for i, rule in enumerate(rules):
            window = range(prev + 1, k - m + i + 1)
            placed_at = self._reuse_in_window(rule, window)
            if placed_at is not None:
                outcome.reused += 1
                self.sharing_events += 1
                prev = placed_at
                continue
            placed_at = self._insert_in_window(rule, window)
            if placed_at is None:
                outcome.rejected += 1
                self.stats.rejected += 1
                # Later rules cannot chain past a missing segment; stop.
                break
            outcome.installed += 1
            self.stats.insertions += 1
            prev = placed_at
        if outcome.installed:
            self.bump_epoch()
        return outcome

    def _reuse_in_window(
        self, rule: LtmRule, window: range
    ) -> Optional[int]:
        identity = rule.identity
        for index in window:
            table = self.tables[index]
            existing = table.find_identical(identity)
            if existing is not None:
                table.share(existing, rule)
                return index
        return None

    def _insert_in_window(
        self, rule: LtmRule, window: range
    ) -> Optional[int]:
        candidates = [
            index for index in window if not self.tables[index].is_full
        ]
        if not candidates:
            if self.eviction == "reject":
                return None
            index = self._evict_for(window, rule.last_used)
            if index is None:
                return None
            candidates = [index]
        if self.placement == "balanced":
            index = max(candidates, key=lambda i: self.tables[i].free_slots)
        else:
            index = candidates[0]
        inserted = self.tables[index].insert(rule)
        assert inserted, "candidate table was checked for space"
        return index

    def _evict_for(self, window: range, now: float) -> Optional[int]:
        """Free one slot by evicting, among the feasible tables' least
        recently used rules, the one with the oldest ``last_used``;
        returns the table index with the freed slot."""
        victim = None
        victim_table = None
        for index in window:
            candidate = self.tables[index].lru_rule()
            if candidate is None:
                continue
            if victim is None or candidate.last_used < victim.last_used:
                victim = candidate
                victim_table = index
        if victim is None:
            return None
        self._depart((victim,), "lru", now - victim.last_used)
        return victim_table

    # -- FlowCache bookkeeping ----------------------------------------------------------

    def entry_count(self) -> int:
        return sum(len(t) for t in self.tables)

    def capacity_total(self) -> int:
        return sum(t.capacity for t in self.tables)

    # -- entry lifecycle (see FlowCache) ------------------------------------------------

    def __iter__(self) -> Iterator[LtmRule]:
        return chain.from_iterable(self.tables)

    def _drop(self, rule: LtmRule) -> None:
        for table in self.tables:
            if rule in table:
                table.remove(rule)
                return
        raise KeyError(f"rule not installed: {rule!r}")

    # -- revalidation (see FlowCache) ------------------------------------------------

    def replay_start(self, rule: LtmRule) -> int:
        return rule.tag

    def replay_agrees(self, rule: LtmRule, replay: Traversal) -> bool:
        if len(replay) != rule.length:
            # The path from this tag got shorter — stale.
            return False
        rebuilt = build_ltm_rule(replay.sub(0, len(replay)))
        return (
            rebuilt.match == rule.match
            and rebuilt.actions == rule.actions
            and rebuilt.next_tag == rule.next_tag
        )

    # -- observability -------------------------------------------------------------------

    def attach_telemetry(self, telemetry, name=None) -> None:
        super().attach_telemetry(telemetry, name)
        self._probe_counters, self._trace_probe = telemetry.ltm_observer(
            self.tables
        )
        for table in self.tables:
            table.set_observer(
                telemetry.tss_observer(
                    f"{self.telemetry_name}.gf{table.index}"
                )
            )

    # -- introspection -------------------------------------------------------------------

    def per_table_counts(self) -> Tuple[int, ...]:
        return tuple(len(t) for t in self.tables)

    def average_sharing(self) -> float:
        """Mean number of traversals sharing each cached sub-traversal —
        the reoccurrence frequency of Fig. 11."""
        counts = [rule.install_count for rule in self]
        return sum(counts) / len(counts) if counts else 0.0
