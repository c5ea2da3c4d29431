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
from .rulegen import build_ltm_rules


@dataclass(slots=True)
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
        port = None  # the composition's first output port
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
            actions = rule.actions
            composed.extend(actions)
            if port is None:
                port = actions.output_port()
            current = actions.apply(current)
            tag = rule.next_tag
        if tag == TAG_DONE:
            result = CacheResult(
                hit=True,
                actions=ActionList(composed),
                output_port=port,
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
        available = 0
        for table in self.tables:
            if len(table.by_identity) < table.capacity:
                available += 1
        max_parts = min(len(self.tables), max(available, 1))
        partition = self.partitioner(traversal, max_parts)
        rules = build_ltm_rules(partition, generation, now)
        return self.install_rules(rules)

    def install_rules(self, rules: Sequence[LtmRule]) -> InstallOutcome:
        """Place ordered LTM rules into strictly increasing tables.

        Rule ``i`` of ``m`` may land in table indices
        ``[prev + 1, K - m + i]`` — the window that leaves room for the
        remaining rules.  One pass over the window finds an identical
        rule to reuse, if there is one anywhere in it, and otherwise the
        table the placement policy picks: ``balanced`` the first with
        the most free slots, ``earliest`` the first with any.  When
        every table in the window is full, ``lru`` evicts the oldest of
        their least recently used rules (:meth:`_evict_for`) and
        ``reject`` refuses the rule and every later one, which could not
        chain past the missing segment.
        """
        tables = self.tables
        k = len(tables)
        m = len(rules)
        if m > k:
            raise ValueError(
                f"{m} sub-traversals cannot map onto {k} cache tables"
            )
        balanced = self.placement == "balanced"
        installed = reused = rejected = 0
        prev = -1
        stop = k - m
        for rule in rules:
            stop += 1
            identity = rule.identity
            target = None
            most = 0
            for index in range(prev + 1, stop):
                table = tables[index]
                filed = table.by_identity
                resident = filed.get(identity)
                if resident is not None:
                    table.share(resident, rule)
                    reused += 1
                    break
                free = table.capacity - len(filed)
                if free > most and (balanced or not most):
                    target = table
                    most = free
            else:
                if target is None:
                    if self.eviction == "reject":
                        rejected = 1
                        break
                    target = self._evict_for(prev + 1, stop, rule.last_used)
                target.insert(rule)
                installed += 1
                index = target.index
            prev = index
        self.sharing_events += reused
        stats = self.stats
        stats.rejected += rejected
        if installed:
            stats.insertions += installed
            self.bump_epoch()
        return InstallOutcome(installed, reused, rejected, m)

    def _evict_for(self, start: int, stop: int, now: float) -> LtmTable:
        """Free one slot in tables ``[start, stop)``, all full, by
        evicting the oldest (by ``last_used``, the first on a tie) of
        their least recently used rules; returns its table."""
        victim = None
        for table in self.tables[start:stop]:
            candidate = table.lru_rule()
            if victim is None or candidate.last_used < victim.last_used:
                victim = candidate
                victim_table = table
        self._depart((victim,), "lru", now - victim.last_used)
        return victim_table

    # -- FlowCache bookkeeping ----------------------------------------------------------

    def entry_count(self) -> int:
        count = 0
        for table in self.tables:
            count += len(table.by_identity)
        return count

    def capacity_total(self) -> int:
        return sum(t.capacity for t in self.tables)

    # -- entry lifecycle (see FlowCache) ------------------------------------------------

    def __iter__(self) -> Iterator[LtmRule]:
        return chain.from_iterable(self.tables)

    def _drop(self, rule: LtmRule) -> None:
        # Straight to the table that filed it, which raises KeyError
        # for a rule it does not hold: one that departed, an identical
        # twin of a resident rule or another cache's rule.
        try:
            table = self.tables[rule.table]
        except (IndexError, TypeError):
            raise KeyError(f"rule not installed: {rule!r}") from None
        table.remove(rule)

    # -- revalidation (see FlowCache) ------------------------------------------------

    def replay_start(self, rule: LtmRule) -> int:
        return rule.tag

    def replay_agrees(self, rule: LtmRule, replay: Traversal) -> bool:
        length = len(replay)
        if length != rule.length:
            # The path from this tag got shorter — stale.
            return False
        match, actions, _, _, next_table = replay.slice_entry(0, length)[:5]
        return (
            match == rule.match
            and actions == rule.actions
            and (TAG_DONE if next_table is None else next_table)
            == rule.next_tag
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
