"""Edge-case and contract tests for eviction across the cache stack.

Covers the corners a change to the recency bookkeeping must not
disturb:

* :meth:`LtmTable.lru_rule` on empty / single-rule tables, and its
  interaction with same-step installs (an eviction racing an install at
  the same timestamp must victimise the *older* rule);
* the strict idle-expiry boundary — ``now - last_used > max_idle`` — an
  entry idle for *exactly* ``max_idle`` survives the sweep, in every
  cache implementation (the contract documented on
  :meth:`repro.cache.base.FlowCache.evict_idle`);
* sweep cadence × :class:`~repro.sim.fastpath.FastPathIndex` epoch
  invalidation: a sweep that removes nothing must not invalidate
  memoized lookups; a sweep that removes anything must;
* ``eviction`` is ``"lru"`` or ``"reject"`` at every constructor that
  takes it (the Gigaflow family's).
"""

import pytest

from repro.cache import (
    CacheHierarchy,
    MegaflowCache,
    MegaflowEntry,
    MicroflowCache,
)
from repro.core import TAG_DONE, GigaflowCache, LtmRule, LtmTable
from repro.core.adaptive import AdaptiveGigaflowCache
from repro.flow import ActionList, Output, TernaryMatch
from repro.sim import AdaptiveGigaflowSystem, GigaflowSystem
from repro.sim.fastpath import FastPathIndex
from conftest import flow


def ltm_rule(tp_dst=443, tag=0, priority=1, now=0.0):
    return LtmRule(
        tag=tag,
        match=TernaryMatch.from_fields({"tp_dst": tp_dst}),
        priority=priority,
        actions=ActionList((Output(1),)),
        next_tag=TAG_DONE,
        parent_flow=flow(tp_dst=tp_dst),
        now=now,
    )


def mega_entry(tp_dst=443, now=0.0):
    return MegaflowEntry(
        match=TernaryMatch.from_fields({"tp_dst": tp_dst}),
        actions=ActionList((Output(1),)),
        parent_flow=flow(tp_dst=tp_dst),
        length=1,
        now=now,
    )


class TestLtmTableVictimEdgeCases:
    def test_empty_table_has_no_victim(self):
        table = LtmTable(0, capacity=4)
        assert table.lru_rule() is None

    def test_single_rule_is_the_victim(self):
        table = LtmTable(0, capacity=4)
        rule = ltm_rule(now=1.0)
        assert table.insert(rule)
        assert table.lru_rule() is rule
        table.remove(rule)
        assert table.lru_rule() is None

    def test_clear_resets_victim_state(self):
        cache = GigaflowCache(num_tables=1, table_capacity=4)
        cache.install_rules([ltm_rule(tp_dst=1)])
        cache.install_rules([ltm_rule(tp_dst=2)])
        cache.clear()
        (table,) = cache.tables
        assert table.lru_rule() is None
        rule = ltm_rule(tp_dst=3)
        table.insert(rule)
        assert table.lru_rule() is rule

    def test_touch_reorders_victim(self):
        table = LtmTable(0, capacity=4)
        a = ltm_rule(tp_dst=1, now=0.0)
        b = ltm_rule(tp_dst=2, now=1.0)
        table.insert(a)
        table.insert(b)
        assert table.lru_rule() is a
        table.touch(a, 2.0)
        assert table.lru_rule() is b

    def test_same_timestamp_ties_break_by_insertion_order(self):
        table = LtmTable(0, capacity=4)
        a = ltm_rule(tp_dst=1, now=5.0)
        b = ltm_rule(tp_dst=2, now=5.0)
        table.insert(a)
        table.insert(b)
        assert table.lru_rule() is a

    def test_share_refreshes_recency_and_counts(self):
        table = LtmTable(0, capacity=4)
        a = ltm_rule(tp_dst=1, now=0.0)
        b = ltm_rule(tp_dst=2, now=1.0)
        table.insert(a)
        table.insert(b)
        # Re-installing an identical rule shares the resident one ...
        duplicate = ltm_rule(tp_dst=1, now=2.0)
        assert table.insert(duplicate)
        assert len(table) == 2
        assert a.install_count == 2
        assert a.last_used == 2.0
        # ... and moves it off the victim slot.
        assert table.lru_rule() is b

    def test_share_never_rolls_recency_backwards(self):
        table = LtmTable(0, capacity=4)
        a = ltm_rule(tp_dst=1, now=5.0)
        table.insert(a)
        stale_duplicate = ltm_rule(tp_dst=1, now=3.0)
        table.insert(stale_duplicate)
        assert a.last_used == 5.0


class TestEvictionRacesSameStepInstall:
    def test_gigaflow_evicts_older_rule_at_same_timestamp(self):
        """A capacity eviction triggered by an install at timestamp t
        must victimise the previously-resident rule, never the rule the
        same step just placed — even when ``last_used`` ties at t."""
        cache = GigaflowCache(num_tables=1, table_capacity=1)
        first = ltm_rule(tp_dst=1, now=7.0)
        assert cache.install_rules([first]).installed == 1
        second = ltm_rule(tp_dst=2, now=7.0)
        outcome = cache.install_rules([second])
        assert outcome.installed == 1
        assert outcome.rejected == 0
        assert cache.stats.evictions == 1
        resident = list(cache.tables[0])
        assert resident == [second]

    def test_microflow_evicts_older_entry_at_same_timestamp(self):
        cache = MicroflowCache(capacity=1)
        actions = ActionList((Output(1),))
        cache.install(flow(tp_src=1), actions, now=7.0)
        cache.install(flow(tp_src=2), actions, now=7.0)
        assert cache.stats.evictions == 1
        assert not cache.lookup(flow(tp_src=1), now=7.0).hit
        assert cache.lookup(flow(tp_src=2), now=7.0).hit


class TestIdleBoundaryContract:
    """``evict_idle`` uses strict ``now - last_used > max_idle``: an
    entry idle for exactly ``max_idle`` survives.  Pinned here for every
    cache so a refactor cannot silently flip the comparison to ``>=``."""

    MAX_IDLE = 5.0

    def check(self, cache):
        population = cache.entry_count()
        assert population
        assert cache.evict_idle(self.MAX_IDLE, self.MAX_IDLE) == 0
        assert cache.entry_count() == population
        assert (
            cache.evict_idle(self.MAX_IDLE + 1e-9, self.MAX_IDLE)
            == population
        )
        assert cache.entry_count() == 0

    def test_microflow(self):
        cache = MicroflowCache(capacity=4)
        cache.install(flow(), ActionList((Output(1),)), now=0.0)
        self.check(cache)

    def test_megaflow(self):
        cache = MegaflowCache(capacity=4)
        cache.install(mega_entry(now=0.0), now=0.0)
        self.check(cache)

    def test_gigaflow(self):
        cache = GigaflowCache(num_tables=2, table_capacity=4)
        cache.install_rules([ltm_rule(now=0.0)])
        self.check(cache)

    def test_hierarchy(self):
        cache = CacheHierarchy(microflow_capacity=4, megaflow_capacity=4)
        cache.microflow.install(flow(), ActionList((Output(1),)), now=0.0)
        cache.megaflow.install(mega_entry(now=0.0), now=0.0)
        self.check(cache)


class TestSweepEpochInvalidation:
    """Idle sweeps reach the fast path through the mutation epoch: a
    no-op sweep leaves it alone and memoized lookups replay unchecked;
    a removing sweep moves it, and a record is then dropped unless it
    can tell the sweep took nothing its lookup depended on."""

    def test_noop_sweep_keeps_memo_valid(self):
        cache = GigaflowCache(num_tables=2, table_capacity=4)
        cache.install_rules([ltm_rule(now=0.0)])
        fastpath = FastPathIndex(cache)
        packet = flow(tp_dst=443)
        assert fastpath.lookup(packet, now=1.0).hit
        assert fastpath.lookup(packet, now=2.0).hit
        assert fastpath.memo_hits == 1
        # Boundary sweep: the rule is exactly max_idle idle → untouched,
        # epoch unchanged, memo still replayed.
        assert cache.evict_idle(now=7.0, max_idle=5.0) == 0
        assert fastpath.lookup(packet, now=7.0).hit
        assert fastpath.memo_hits == 2
        assert fastpath.invalidations == 0

    def test_removing_sweep_invalidates_memo(self):
        cache = GigaflowCache(num_tables=2, table_capacity=4)
        cache.install_rules([ltm_rule(now=0.0)])
        fastpath = FastPathIndex(cache)
        packet = flow(tp_dst=443)
        assert fastpath.lookup(packet, now=1.0).hit
        assert fastpath.lookup(packet, now=2.0).hit
        assert cache.evict_idle(now=10.0, max_idle=5.0) == 1
        result = fastpath.lookup(packet, now=10.0)
        assert not result.hit
        assert fastpath.invalidations == 1

    def test_sweep_of_another_flows_rule_revalidates_memo(self):
        cache = GigaflowCache(num_tables=1, table_capacity=4)
        cache.install_rules([ltm_rule(now=0.0)])
        cache.install_rules([ltm_rule(tp_dst=80, now=0.0)])
        fastpath = FastPathIndex(cache)
        packet = flow(tp_dst=443)
        assert fastpath.lookup(packet, now=4.0).hit
        # Only the idle neighbour (same mask group) expires.
        assert cache.evict_idle(now=8.0, max_idle=5.0) == 1
        assert fastpath.lookup(packet, now=8.0).hit
        assert fastpath.memo_hits == 1
        assert fastpath.revalidated == 1
        assert fastpath.invalidations == 0

    def test_policy_driven_eviction_invalidates_memo(self):
        cache = MicroflowCache(capacity=1)
        actions = ActionList((Output(1),))
        cache.install(flow(tp_src=1), actions, now=0.0)
        fastpath = FastPathIndex(cache)
        target = flow(tp_src=1)
        assert fastpath.lookup(target, now=1.0).hit
        assert fastpath.lookup(target, now=2.0).hit
        # Capacity eviction replaces the memoized entry's slot.
        cache.install(flow(tp_src=2), actions, now=3.0)
        assert not fastpath.lookup(target, now=4.0).hit
        assert fastpath.invalidations == 1


#: Every constructor that takes ``eviction``: the Gigaflow family.
TAKES_EVICTION = (
    lambda eviction: GigaflowCache(
        num_tables=2, table_capacity=4, eviction=eviction
    ),
    lambda eviction: AdaptiveGigaflowCache(
        num_tables=2, table_capacity=4, eviction=eviction
    ),
    lambda eviction: GigaflowSystem(
        num_tables=2, table_capacity=4, eviction=eviction
    ),
    lambda eviction: AdaptiveGigaflowSystem(
        num_tables=2, table_capacity=4, eviction=eviction
    ),
)


class TestPolicySelectionValidation:
    def test_unknown_policy_rejected_everywhere(self):
        for build in TAKES_EVICTION:
            for accepted in ("lru", "reject"):
                build(accepted)
            for unknown in ("nope", "sharing"):
                with pytest.raises(ValueError, match="lru, reject"):
                    build(unknown)
