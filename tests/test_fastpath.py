"""Tests for the exact-match fast path (FastPathIndex).

Three properties matter:

1. **Metric faithfulness** — running a simulation with the fast path on
   must produce a :class:`~repro.sim.results.SimResult` identical in
   every field to running it with the fast path off, for every caching
   system, with idle eviction enabled and — for Gigaflow — under rule
   churn, budgeted revalidation and capacity pressure (the differential
   test).
2. **Epoch invalidation** — any structural cache mutation (install,
   idle eviction, clear) makes memoized records stale; a stale
   Microflow, Megaflow or hierarchy record re-runs its cache's one
   search and is dropped unless it finds the same entry holding the
   same actions, so replays never serve stale state
   (:class:`TestSingleEntryRecords`).
3. **Validation exactness** — a stale Gigaflow record is replayed
   exactly when ``still_valid()`` says a full walk would find the same
   chain, and it then charges what that walk would: ``still_valid()``
   is ``True`` if and only if the side-effect-free walk finds the
   record's chain, and the record's ``result.groups_probed`` is then the
   walk's (:class:`TestValidationSoundness`,
   :class:`TestEachCheckIsNeeded`).
"""

import dataclasses
import gc
import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.cache import MegaflowCache, MegaflowEntry, MicroflowCache
from repro.core import TAG_DONE, GigaflowCache, LtmRule
from repro.core.partition import disjoint_partition, megaflow_partition
from repro.flow import ActionList, Output, TernaryMatch
from repro.obs import Telemetry
from repro.pipeline import ENTRY_TABLE, PSC
from repro.serve import ServeConfig, ServingDriver, stream_trace
from repro.sim import fastpath as fastpath_module
from repro.sim.batch import column_pairs
from repro.sim import (
    AdaptiveGigaflowSystem,
    CachingSystem,
    ChurnConfig,
    FastPathIndex,
    GigaflowSystem,
    HierarchySystem,
    MegaflowSystem,
    SimConfig,
    VSwitchSimulator,
)
from repro.workload import (
    build_workload,
    insert_delete_storm,
    priority_shuffle_schedule,
)

from conftest import flow, rewrite, seeded_trace, seeded_workload
from test_ltm import ltm_rule

N_FLOWS = 400

SYSTEMS = {
    "megaflow": lambda: MegaflowSystem(capacity=300),
    "gigaflow": lambda: GigaflowSystem(num_tables=4, table_capacity=200),
    "gigaflow-adaptive": lambda: AdaptiveGigaflowSystem(
        num_tables=4, table_capacity=200
    ),
    "hierarchy": lambda: HierarchySystem(
        microflow_capacity=150, megaflow_capacity=300
    ),
}


#: The PSC ACL stage (as in test_churn.py).
ACL_TABLE = 5

#: Gigaflow under everything that mutates the cache while it serves:
#: a quarter-of-working-set capacity (eviction on most installs), a
#: rule storm plus priority shuffles with a small revalidation budget
#: and sub-second idle sweeps.
CHURNED_SYSTEMS = {
    "gigaflow": lambda: GigaflowSystem(
        num_tables=4, table_capacity=N_FLOWS // 16
    ),
    "gigaflow-adaptive": lambda: AdaptiveGigaflowSystem(
        num_tables=4, table_capacity=N_FLOWS // 16
    ),
}


def sim_config(workload, fast_path: bool, churned: bool) -> SimConfig:
    """Idle sweeps every 2 s at a 4 s timeout; churned, also a rule
    storm and priority shuffles on the ACL stage, revalidated 8
    entries per half-second tick."""
    config = SimConfig(
        max_idle=4.0, sweep_interval=2.0, fast_path=fast_path
    )
    if churned:
        schedule = insert_delete_storm(
            workload.pilots, ACL_TABLE,
            start=2.0, count=12, gap=1.5, hold=2.5, seed=4,
        ).merged_with(
            priority_shuffle_schedule(ACL_TABLE, [5.0, 12.0, 19.0], seed=2)
        )
        config = dataclasses.replace(
            config,
            sweep_interval=0.5,
            churn=ChurnConfig(schedule=schedule, reval_budget=8),
        )
    return config


def run_once(make_system, fast_path: bool, churned: bool = False):
    workload = build_workload(PSC, n_flows=N_FLOWS, locality="high", seed=11)
    trace = workload.trace(seed=3)
    simulator = VSwitchSimulator(
        workload.pipeline, make_system(),
        sim_config(workload, fast_path, churned),
    )
    return simulator.run(trace), simulator


def assert_same_result(fast, slow):
    """Every ``SimResult`` field (``series`` by its buckets)."""
    for field in dataclasses.fields(fast):
        ours, theirs = getattr(fast, field.name), getattr(slow, field.name)
        if field.name == "series":
            ours, theirs = ours.buckets(), theirs.buckets()
        assert ours == theirs, field.name


class TestDifferentialEquivalence:
    """Fast path on vs off must be indistinguishable in every metric."""

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_simresult_identical(self, name):
        fast, sim_fast = run_once(SYSTEMS[name], fast_path=True)
        slow, sim_slow = run_once(SYSTEMS[name], fast_path=False)

        assert_same_result(fast, slow)

        # The fast run actually exercised the memo.
        assert sim_fast.fastpath is not None
        assert sim_fast.fastpath.memo_hits > 0
        assert sim_slow.fastpath is None

    @pytest.mark.parametrize("name", sorted(CHURNED_SYSTEMS))
    def test_simresult_identical_under_churn_and_pressure(self, name):
        make_system = CHURNED_SYSTEMS[name]
        fast, sim_fast = run_once(make_system, fast_path=True, churned=True)
        slow, sim_slow = run_once(make_system, fast_path=False, churned=True)

        assert_same_result(fast, slow)
        assert sim_fast.churn.digest() == sim_slow.churn.digest()

        # Every way a record can go stale happened, and stale records
        # went both ways: some re-validated, some dropped.
        stats, churn = fast.stats, sim_fast.churn.digest()
        assert stats.evictions > stats.insertions // 2
        assert churn["events"] and churn["reval_evicted"]
        assert sim_fast.fastpath.revalidated > 0
        assert sim_fast.fastpath.invalidations > 0


class TestEpochInvalidation:
    """install / evict / clear must each invalidate memoized flows."""

    @staticmethod
    def warm(capacity=8):
        cache = MicroflowCache(capacity=capacity)
        fastpath = FastPathIndex(cache)
        target = flow(tp_src=1)
        cache.install(target, ActionList([Output(1)]), now=0.0)
        assert fastpath.lookup(target, now=1.0).hit  # full lookup, memoized
        assert fastpath.lookup(target, now=2.0).hit  # memo replay
        assert fastpath.memo_hits == 1
        return cache, fastpath, target

    def test_memo_replay_matches_full_lookup(self):
        cache, fastpath, target = self.warm()
        replayed = fastpath.lookup(target, now=3.0)
        full = cache.lookup(target, now=3.0)
        assert replayed.hit and full.hit
        assert replayed.actions == full.actions
        assert replayed.groups_probed == full.groups_probed
        assert replayed.tables_hit == full.tables_hit

    def test_unrelated_install_revalidates(self):
        cache, fastpath, target = self.warm()
        cache.install(flow(tp_src=2), ActionList([Output(2)]), now=3.0)
        assert fastpath.lookup(target, now=4.0).hit
        # The epoch moved, the flow's entry did not: re-checked and
        # replayed, not dropped.
        assert (fastpath.revalidated, fastpath.invalidations) == (1, 0)
        assert fastpath.memo_hits == 2

    def test_capacity_eviction_invalidates(self):
        cache, fastpath, target = self.warm(capacity=1)
        cache.install(flow(tp_src=2), ActionList([Output(2)]), now=3.0)
        assert not fastpath.lookup(target, now=4.0).hit
        assert fastpath.invalidations == 1

    def test_evict_idle_invalidates(self):
        cache, fastpath, target = self.warm()
        assert cache.evict_idle(now=100.0, max_idle=5.0) == 1
        assert not fastpath.lookup(target, now=101.0).hit
        assert fastpath.invalidations == 1

    def test_clear_invalidates(self):
        cache, fastpath, target = self.warm()
        cache.clear()
        assert not fastpath.lookup(target, now=3.0).hit
        assert fastpath.invalidations == 1

    def test_replay_keeps_lru_faithful(self):
        # A memo replay must refresh recency exactly like a real lookup:
        # the replayed flow survives eviction, the untouched one dies.
        cache = MicroflowCache(capacity=2)
        fastpath = FastPathIndex(cache)
        a, b, c = (flow(tp_src=i) for i in range(3))
        cache.install(a, ActionList([Output(1)]), now=0.0)
        cache.install(b, ActionList([Output(2)]), now=1.0)
        assert fastpath.lookup(a, now=2.0).hit   # memoize a
        assert fastpath.lookup(a, now=3.0).hit   # replay touches a's LRU slot
        cache.install(c, ActionList([Output(3)]), now=4.0)  # evicts b, not a
        assert cache.lookup(a, now=5.0).hit
        assert not cache.lookup(b, now=5.0).hit

    def test_memo_bound_resets_wholesale(self, monkeypatch):
        monkeypatch.setattr(fastpath_module, "MEMO_ENTRIES", 2)
        cache = MicroflowCache(capacity=8)
        fastpath = FastPathIndex(cache)
        flows = [flow(tp_src=i) for i in range(3)]
        for i, f in enumerate(flows):
            cache.install(f, ActionList([Output(i)]), now=float(i))
        for f in flows:
            assert fastpath.lookup(f, now=10.0).hit
        # The third record found the memo full and cleared it.
        assert len(fastpath) == 1

    def test_microflow_refresh_reaches_a_memoized_flow(self):
        cache, fastpath, target = self.warm()
        cache.install(target, ActionList([Output(9)]), now=3.0)
        assert fastpath.lookup(target, now=4.0).actions == ActionList(
            [Output(9)]
        )
        assert fastpath.invalidations == 1

    def test_megaflow_refresh_reaches_a_memoized_flow(self):
        cache = MegaflowCache(capacity=8)
        fastpath = FastPathIndex(cache)
        target = flow(tp_dst=443)

        def entry(port):
            return MegaflowEntry(
                match=TernaryMatch.from_fields({"tp_dst": 443}),
                actions=ActionList([Output(port)]),
                parent_flow=target,
                length=1,
            )

        cache.install(entry(1), now=0.0)
        assert fastpath.lookup(target, now=1.0).hit  # memoized
        assert fastpath.lookup(target, now=2.0).actions == ActionList(
            [Output(1)]
        )
        cache.install(entry(9), now=3.0)  # same match: a refresh
        assert cache.entry_count() == 1
        assert fastpath.lookup(target, now=4.0).actions == ActionList(
            [Output(9)]
        )
        assert fastpath.invalidations == 1


# -- Microflow, Megaflow and hierarchy record validation --------------------


def megaflow_entry(values, actions, parent):
    """A one-table Megaflow entry matching ``values`` exactly."""
    return MegaflowEntry(
        match=TernaryMatch.from_fields(values),
        actions=actions,
        parent_flow=parent,
        length=1,
    )


class _MicroflowSystem(CachingSystem):
    """A Microflow cache alone, installed one entry per traversal."""

    name = "microflow"

    def __init__(self, capacity):
        self.cache = MicroflowCache(capacity)


#: The single-entry systems under everything that mutates a cache
#: while it serves: about a quarter of the working set (LRU evictions
#: on most installs) and, for Megaflow, the rule churn and budgeted
#: revalidation of :data:`CHURNED_SYSTEMS`.
LIFECYCLE_SYSTEMS = {
    "megaflow": (lambda: MegaflowSystem(capacity=N_FLOWS // 4), True),
    "microflow": (lambda: _MicroflowSystem(N_FLOWS // 4), False),
    "hierarchy": (
        lambda: HierarchySystem(
            microflow_capacity=N_FLOWS // 8, megaflow_capacity=N_FLOWS // 4
        ),
        False,
    ),
}

#: What the lifecycle run does to the cache between two chunks of
#: packets.
_LIFECYCLE_OPS = ("none", "refresh_same", "refresh_new", "remove")


def lifecycle_run(make_system, fast_path, churned, seed):
    """:func:`run_once`'s run, sent 40 packets at a time, with one
    seeded operation on a resident entry after each chunk: a refresh
    keeping its actions object, a refresh with new actions (another
    output port), a ``remove``, or nothing.  Installs, LRU evictions
    and idle sweeps come from the run itself.  Returns the result, the
    kernel, how often each operation ran and every lookup's ``(hit,
    output port, groups probed)`` — the port is in no ``SimResult``
    field."""
    workload = build_workload(PSC, n_flows=N_FLOWS, locality="high", seed=11)
    trace = workload.trace(seed=3)
    flows = {pilot.flow.packed: pilot.flow for pilot in trace.pilots}
    system = make_system()
    kernel = VSwitchSimulator(
        workload.pipeline, system, sim_config(workload, fast_path, churned)
    ).kernel()
    cache = system.cache
    lookups = []
    owner = kernel.fastpath if fast_path else cache
    lookup = owner.lookup

    def logged(packet, now):
        result = lookup(packet, now)
        lookups.append((result.hit, result.output_port, result.groups_probed))
        return result

    # The kernel reads its lookup off this attribute when a run starts.
    owner.lookup = logged
    levels = [level for _, level in cache.levels()] or [cache]
    pairs = [pair for chunk in column_pairs(trace) for pair in chunk]
    rng = random.Random(seed)
    done = dict.fromkeys(_LIFECYCLE_OPS, 0)
    for at in range(0, len(pairs), 40):
        kernel.run(pairs[at:at + 40])
        level = levels[rng.randrange(len(levels))]
        op = rng.choice(_LIFECYCLE_OPS)
        entries = list(level)
        if op == "none" or not entries:
            continue
        entry = entries[rng.randrange(len(entries))]
        done[op] += 1
        now = kernel.now
        if op == "remove":
            cache.remove(entry, "revalidation")
            continue
        actions = (
            entry.actions if op == "refresh_same"
            else ActionList([Output(1000 + rng.randrange(4))])
        )
        if isinstance(level, MicroflowCache):
            level.install(flows[entry.key], actions, now)
        else:
            level.install(
                MegaflowEntry(
                    entry.match, actions, entry.parent_flow, entry.length,
                    entry.generation, now,
                ),
                now,
            )
    return kernel.finish(), kernel, done, lookups


class TestSingleEntryRecords:
    """A stale Microflow, Megaflow or hierarchy record re-runs its
    cache's one search: it replays while that finds the same entry
    holding the same actions object, re-charged when the probe count
    moved, and is dropped otherwise."""

    @pytest.mark.parametrize("name", sorted(LIFECYCLE_SYSTEMS))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_lifecycle_memo_on_equals_memo_off(self, name, seed):
        make_system, churned = LIFECYCLE_SYSTEMS[name]
        fast, kernel, done, logged = lifecycle_run(
            make_system, True, churned, seed
        )
        slow, _, slow_done, slow_logged = lifecycle_run(
            make_system, False, churned, seed
        )
        assert_same_result(fast, slow)
        assert (done, logged) == (slow_done, slow_logged)
        assert all(done[op] for op in _LIFECYCLE_OPS[1:]), done
        cache = kernel.cache
        for level in [level for _, level in cache.levels()] or [cache]:
            assert level.stats.evictions > level.stats.insertions // 2
        fastpath = kernel.fastpath
        assert fastpath.revalidated > 0 and fastpath.invalidations > 0
        if churned:
            churn = kernel.churn.digest()
            assert churn["events"] and churn["reval_evicted"]

    def test_megaflow_unrelated_install_revalidates(self):
        cache = MegaflowCache(capacity=8)
        target = flow(tp_dst=443)
        cache.install(
            megaflow_entry({"tp_dst": 443}, ActionList([Output(1)]), target)
        )
        fastpath = FastPathIndex(cache)
        looked_up = fastpath.lookup(target, now=1.0)
        # Same mask group, another key.
        cache.install(
            megaflow_entry({"tp_dst": 80}, ActionList([Output(2)]), target)
        )
        assert fastpath.lookup(target, now=2.0) is looked_up
        assert (fastpath.revalidated, fastpath.invalidations) == (1, 0)
        assert looked_up == cache.lookup(target, now=3.0)

    def test_a_refresh_keeping_the_actions_object_revalidates(self):
        actions = ActionList([Output(1)])
        megaflow = MegaflowCache(capacity=8)
        target = flow(tp_dst=443)
        megaflow.install(megaflow_entry({"tp_dst": 443}, actions, target))
        microflow = MicroflowCache(capacity=8)
        microflow.install(target, actions, now=0.0)
        for cache in (megaflow, microflow):
            fastpath = FastPathIndex(cache)
            assert fastpath.lookup(target, now=1.0).hit
            if cache is megaflow:
                cache.install(
                    megaflow_entry({"tp_dst": 443}, actions, target), now=2.0
                )
            else:
                cache.install(target, actions, now=2.0)
            assert fastpath.lookup(target, now=3.0).actions is actions
            assert (fastpath.revalidated, fastpath.invalidations) == (1, 0)

    def test_a_newer_entry_in_an_older_group_shadows_the_winner(self):
        """Entries of two pipeline generations can overlap until
        revalidation reaches them: the winner is then the one in the
        older mask group, so a record whose entry is still resident
        must be dropped."""
        cache = MegaflowCache(capacity=8)
        target = flow(tp_src=7, tp_dst=443)
        # The older group (tp_dst), holding nothing this flow matches.
        cache.install(
            megaflow_entry({"tp_dst": 80}, ActionList([Output(1)]), target)
        )
        cache.install(
            megaflow_entry({"tp_src": 7}, ActionList([Output(2)]), target)
        )
        fastpath = FastPathIndex(cache)
        assert fastpath.lookup(target, now=1.0).output_port == 2
        shadow = megaflow_entry(
            {"tp_dst": 443}, ActionList([Output(3)]), target
        )
        cache.install(shadow, now=2.0)
        assert cache.entry_count() == 3  # the memoized entry is resident
        replayed = fastpath.lookup(target, now=3.0)
        assert replayed.output_port == 3
        assert (fastpath.revalidated, fastpath.invalidations) == (0, 1)
        assert replayed == cache.lookup(target, now=4.0)

    def test_a_megaflow_probe_count_that_moved_is_re_charged(self):
        cache = MegaflowCache(capacity=8)
        target = flow(tp_src=7, tp_dst=443)
        older = megaflow_entry(
            {"tp_dst": 80}, ActionList([Output(1)]), target
        )
        cache.install(older)
        cache.install(
            megaflow_entry({"tp_src": 7}, ActionList([Output(2)]), target)
        )
        fastpath = FastPathIndex(cache)
        looked_up = fastpath.lookup(target, now=1.0)
        assert looked_up.groups_probed == 2
        # The older group empties: one group fewer ahead of the winner.
        cache.remove(older, "revalidation")
        replayed = fastpath.lookup(target, now=2.0)
        assert (fastpath.revalidated, fastpath.invalidations) == (1, 0)
        assert replayed.groups_probed == 1
        assert looked_up.groups_probed == 2  # handed out, left alone
        assert replayed == cache.lookup(target, now=3.0)

    def test_a_hierarchy_record_outlives_megaflow_changes(self):
        system = HierarchySystem(microflow_capacity=4, megaflow_capacity=4)
        kernel = _kernel(system)
        cache = system.cache
        packet = _FLOWS[0]
        record = _warm(kernel, packet)  # a Microflow-level hit's record
        kept = record.result
        # Another flow's miss installs into both levels.
        other = _FLOWS[1]
        kernel.run([(3.5, other), (3.6, other)])
        assert record.epoch != cache.mutation_epoch
        fastpath = kernel.fastpath
        kernel.run([(4.0, packet)])
        assert (fastpath.revalidated, fastpath.invalidations) == (1, 0)
        assert record.result is kept
        # A refresh with an equal, new actions object drops it.
        cache.microflow.install(
            packet, ActionList(kept.actions.actions), now=4.5
        )
        kernel.run([(5.0, packet)])
        assert fastpath.invalidations == 1


# -- Gigaflow record validation ---------------------------------------------


def full_walk(cache, packet):
    """The LTM chain walk, side-effect free: the reference every
    ``still_valid() is True`` is held to.  Returns ``(hit, matched
    (table, rule) chain, groups_probed, tables_hit)``."""
    tag = ENTRY_TABLE
    current = packet
    matched = []
    probes = 0
    for table in cache.tables:
        if tag == TAG_DONE:
            break
        rule, groups = table.lookup(current, tag)
        probes += max(groups, 1)
        if rule is not None:
            matched.append((table, rule))
            current = rule.actions.apply(current)
            tag = rule.next_tag
    return tag == TAG_DONE, tuple(matched), probes, len(matched)


def chain_of(record):
    """The (table, rule) chain a record's walk matched: the table and
    the winner of each of its seven-slot steps that matched."""
    steps = record.steps
    return tuple(
        (steps[at + 2], steps[at + 5])
        for at in range(0, len(steps), 7)
        if steps[at + 5] is not None
    )


def recorded(record):
    return True, chain_of(record), record.result.groups_probed, record.result.tables_hit


def memoize(cache, packet):
    """A fast path over ``cache`` holding ``packet``'s record."""
    fastpath = FastPathIndex(cache)
    assert fastpath.lookup(packet, now=1.0).hit
    record = fastpath._memo[packet.packed]
    assert recorded(record) == full_walk(cache, packet)
    return fastpath, record


class TestStaleRecordsThatAreStillExact:
    def test_unrelated_install_revalidates_and_replays(self):
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        cache.install_rules([ltm_rule({"tp_dst": 443})])
        packet = flow(tp_dst=443)
        fastpath, record = memoize(cache, packet)
        # Same mask group, same priority, another key: the cache (and
        # its epoch) changed, this flow's walk did not.
        cache.install_rules([ltm_rule({"tp_dst": 80})])
        assert record.epoch != cache.mutation_epoch
        replayed = fastpath.lookup(packet, now=2.0)
        assert (fastpath.revalidated, fastpath.invalidations) == (1, 0)
        assert fastpath.memo_hits == 1 and fastpath.memo_misses == 1
        assert record.epoch == cache.mutation_epoch
        full = cache.lookup(packet, now=2.0)
        assert replayed == full
        # Re-stamped: the next packet takes the epoch shortcut.
        fastpath.lookup(packet, now=3.0)
        assert fastpath.revalidated == 1 and fastpath.memo_hits == 2

    def test_unrelated_eviction_revalidates(self):
        cache = GigaflowCache(num_tables=1, table_capacity=8)
        other = ltm_rule({"tp_dst": 80})
        cache.install_rules([ltm_rule({"tp_dst": 443})])
        cache.install_rules([other])
        packet = flow(tp_dst=443)
        fastpath, record = memoize(cache, packet)
        cache.remove(other, "reval")
        assert record.still_valid()
        assert recorded(record) == full_walk(cache, packet)

    def test_any_number_of_unrelated_inserts_replays(self):
        cache = GigaflowCache(num_tables=1, table_capacity=1024)
        cache.install_rules([ltm_rule({"tp_dst": 443})])
        packet = flow(tp_dst=443)
        fastpath, record = memoize(cache, packet)
        for port in range(600):
            cache.install_rules([ltm_rule({"tp_dst": 1000 + port})])
        replayed = fastpath.lookup(packet, now=2.0)
        assert (fastpath.revalidated, fastpath.invalidations) == (1, 0)
        assert recorded(record) == full_walk(cache, packet)
        assert replayed == cache.lookup(packet, now=2.0)

    def test_a_moved_probe_count_is_re_charged_not_dropped(self):
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        first, second = cache.tables
        first.insert(ltm_rule({"tp_dst": 443}, next_tag=1))
        second.insert(ltm_rule({"ip_proto": 6}, tag=1))
        packet = flow(tp_dst=443, ip_proto=6)
        fastpath, record = memoize(cache, packet)
        assert record.result.groups_probed == 2
        # A better group in each visited bucket, neither this flow's:
        # both walks now rule one more group out first.
        cache.install_rules([ltm_rule({"vlan_id": 9}, priority=2)])
        cache.install_rules([ltm_rule({"in_port": 9}, tag=1, priority=2)])
        assert full_walk(cache, packet)[2] == 4
        replayed = fastpath.lookup(packet, now=2.0)
        assert fastpath.revalidated == 1 and replayed.groups_probed == 4
        assert recorded(record) == full_walk(cache, packet)
        assert replayed == cache.lookup(packet, now=2.0)


class TestEachCheckIsNeeded:
    """One hand-built change per part of ``still_valid()``: a matched
    rule's bucket changing is seen through the tag's counter alone,
    the re-run lookup's winner must be the recorded rule object, and
    its probe count replaces the recorded one."""

    def test_resident_check_a_matched_rule_was_evicted(self):
        cache = GigaflowCache(num_tables=1, table_capacity=8)
        matched = ltm_rule({"tp_dst": 443})
        cache.install_rules([matched])
        cache.install_rules([ltm_rule({"tp_dst": 80})])  # keeps the group
        packet = flow(tp_dst=443)
        _fastpath, record = memoize(cache, packet)
        changes = cache.tables[0].dependencies[0].changes
        cache.remove(matched, "reval")
        assert cache.tables[0].dependencies[0].changes == changes + 1
        assert not full_walk(cache, packet)[0]
        assert not record.still_valid()
        # An identical rule re-installed is a different object with its
        # own LRU slot and use time: the winner is compared by object.
        cache.install_rules([ltm_rule({"tp_dst": 443})])
        assert full_walk(cache, packet)[0]
        assert full_walk(cache, packet)[1] != chain_of(record)
        assert not record.still_valid()

    def test_probe_order_check_a_higher_priority_group_appeared(self):
        cache = GigaflowCache(num_tables=1, table_capacity=8)
        matched = ltm_rule({"tp_dst": 443}, priority=1)
        cache.install_rules([matched])
        packet = flow(tp_dst=443, ip_proto=6)
        _fastpath, record = memoize(cache, packet)
        # Another mask, a higher priority, not this flow's: the walk
        # must now rule that group out first — one more probe, which
        # the record must charge from now on.
        cache.install_rules([ltm_rule({"ip_proto": 17}, priority=2)])
        hit, chain, probes, _depth = full_walk(cache, packet)
        assert hit and chain == chain_of(record)
        assert probes == record.result.groups_probed + 1
        assert record.still_valid()
        assert record.result.groups_probed == probes
        assert recorded(record) == full_walk(cache, packet)

    def test_insert_check_a_better_match_joined_an_existing_group(self):
        cache = GigaflowCache(num_tables=1, table_capacity=8)
        matched = ltm_rule({"tp_dst": 443}, priority=1)
        cache.install_rules([matched])
        # Same mask at priority 2: the group's best priority is 2 from
        # the start, so the insert below moves no probe count.
        cache.install_rules([ltm_rule({"tp_dst": 80}, priority=2)])
        packet = flow(tp_dst=443)
        _fastpath, record = memoize(cache, packet)
        better = ltm_rule({"tp_dst": 443}, priority=2, actions=(Output(7),))
        cache.install_rules([better])
        assert matched in cache.tables[0]
        hit, chain, probes, _depth = full_walk(cache, packet)
        assert chain == ((cache.tables[0], better),)
        assert probes == record.result.groups_probed
        assert not record.still_valid()

    def test_pass_through_survives_its_bucket_being_emptied(self):
        """A pass-through depends on a bucket it matched nothing in.
        The tag's counter outlives the bucket's classifier, so a record
        made against the old bucket re-runs its lookup against a
        re-created one, which may probe more, or match."""
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        first, second = cache.tables
        bystander = ltm_rule({"ip_proto": 17})
        first.insert(bystander)
        second.insert(ltm_rule({"tp_dst": 443}))
        packet = flow(tp_dst=443, ip_proto=6)
        _fastpath, record = memoize(cache, packet)
        assert chain_of(record)[0][0] is second
        assert record.result.groups_probed == 2
        dependency = first.dependencies[0]
        cache.remove(bystander, "reval")
        assert not first.rules_with_tag(0)
        assert first.dependencies[0] is dependency
        cache.install_rules([ltm_rule({"ip_proto": 17, "in_port": 9})])
        cache.install_rules([ltm_rule({"ip_proto": 17, "vlan_id": 9})])
        assert first.rules_with_tag(0)
        assert first.dependencies[0] is dependency
        assert full_walk(cache, packet)[2] == 3
        assert record.still_valid() and record.result.groups_probed == 3
        first.insert(ltm_rule({"ip_proto": 6}))
        assert full_walk(cache, packet)[1][0][0] is first
        assert not record.still_valid()

    def test_pass_through_of_a_tag_with_no_bucket_yet(self):
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        first, second = cache.tables
        second.insert(ltm_rule({"tp_dst": 443}))
        packet = flow(tp_dst=443, ip_proto=6)
        _fastpath, record = memoize(cache, packet)
        assert not first.rules_with_tag(0) and record.result.groups_probed == 2
        first.insert(ltm_rule({"ip_proto": 17, "in_port": 9}))
        first.insert(ltm_rule({"ip_proto": 17, "vlan_id": 9}))
        assert full_walk(cache, packet)[2] == 3
        assert record.still_valid()
        assert recorded(record) == full_walk(cache, packet)


def _chain(num_tables):
    """A cache of ``num_tables`` tables holding one chain through all
    of them, and the packet that walks it."""
    cache = GigaflowCache(num_tables=num_tables, table_capacity=8)
    for index, table in enumerate(cache.tables):
        last = index == num_tables - 1
        table.insert(
            ltm_rule(
                {"tp_dst": 443},
                tag=index,
                next_tag=TAG_DONE if last else index + 1,
            )
        )
    return cache, flow(tp_dst=443)


def _frames_opened(call):
    """Python frames ``call()`` opens (C calls are not frames).

    A garbage collection during ``call()`` would run finalizers of
    earlier tests' objects (a ``Tracer.__del__``, say) and their frames
    would count too, so garbage is collected first and collection is
    paused for the measured call."""
    opened = 0

    def profile(_frame, event, _arg):
        nonlocal opened
        opened += event == "call"

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return opened


def _kernel(system, telemetry=None):
    """A fast-path kernel over ``system`` (PSC's pipeline behind it,
    for the misses), no cadence due before 5 s (the snapshot, when
    ``telemetry`` is attached; nothing else ever)."""
    return VSwitchSimulator(
        _UNIVERSE.pipeline,
        system,
        SimConfig(fast_path=True, telemetry=telemetry),
    ).kernel()


def _warm(kernel, packet):
    """Send ``packet`` until the kernel's memo holds a fresh record for
    it (a miss installs it; a hierarchy's Megaflow hit promotes it)."""
    for now in (1.0, 2.0, 3.0):
        kernel.run([(now, packet)])
    record = kernel.fastpath._memo[packet.packed]
    assert record.epoch == kernel.cache.mutation_epoch
    return record


def _chain_system(num_tables):
    """A Gigaflow system whose cache holds :func:`_chain`'s chain, and
    the packet that walks it."""
    system = GigaflowSystem(num_tables=num_tables, table_capacity=8)
    system.cache, packet = _chain(num_tables)
    return system, packet


class TestHitPath:
    """What a memoized hit costs and hands out: one Python frame per
    packet in the packet kernel's loop (``FastPathIndex.lookup``, which
    replays the record in its own body), however long the chain, and
    the result its lookup returned — never mutated once handed out."""

    def test_replay_hands_out_the_lookups_result(self):
        cache, packet = _chain(2)
        fastpath = FastPathIndex(cache)
        looked_up = fastpath.lookup(packet, now=1.0)
        record = fastpath._memo[packet.packed]
        assert record.result is looked_up
        assert fastpath.lookup(packet, now=2.0) is looked_up
        assert looked_up == cache.lookup(packet, now=3.0)

    def test_a_re_charge_leaves_a_handed_out_result_alone(self):
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        first, second = cache.tables
        first.insert(ltm_rule({"tp_dst": 443}, next_tag=1))
        second.insert(ltm_rule({"ip_proto": 6}, tag=1))
        packet = flow(tp_dst=443, ip_proto=6)
        fastpath, record = memoize(cache, packet)
        handed_out = fastpath.lookup(packet, now=1.5)
        assert handed_out is record.result and handed_out.groups_probed == 2
        # One more group ahead of this flow's in each visited bucket.
        cache.install_rules([ltm_rule({"vlan_id": 9}, priority=2)])
        cache.install_rules([ltm_rule({"in_port": 9}, tag=1, priority=2)])
        replayed = fastpath.lookup(packet, now=2.0)
        assert fastpath.revalidated == 1
        assert replayed.groups_probed == 4 == record.result.groups_probed
        assert handed_out.groups_probed == 2
        assert fastpath.lookup(packet, now=3.0) is replayed

    def test_a_replay_opens_as_many_frames_for_four_tables_as_one(self):
        opened = {}
        for num_tables in (1, 4):
            cache, packet = _chain(num_tables)
            fastpath, record = memoize(cache, packet)
            assert record.result.tables_hit == num_tables
            opened[num_tables] = _frames_opened(
                lambda: fastpath.lookup(packet, 2.0)
            )
        # The lambda and ``FastPathIndex.lookup``: no call per rule.
        assert opened[1] == opened[4] == 2

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_a_fresh_memoized_hit_opens_one_frame(self, name):
        kernel = _kernel(SYSTEMS[name]())
        packet = _FLOWS[0]
        _warm(kernel, packet)
        fastpath, stats = kernel.fastpath, kernel.cache.stats
        hits, replays = stats.hits, fastpath.memo_hits
        one = _frames_opened(lambda: kernel.run([(4.0, packet)]))
        many = _frames_opened(lambda: kernel.run([(5.0, packet)] * 101))
        # ``FastPathIndex.lookup`` per packet and nothing else: the
        # epoch (the hierarchy's too), the memo key and every other
        # read on the way are plain attributes, and the replay is the
        # lookup's own body.
        assert many - one == 100
        assert stats.hits == hits + 102
        assert fastpath.memo_hits == replays + 102

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_a_fresh_memoized_hit_opens_one_frame_with_metrics_on(
        self, name
    ):
        """Metrics-only telemetry adds no frame per packet: the replay
        tallies on its record and the tally is folded, one call per
        record, when ``run`` returns."""
        telemetry = Telemetry()
        kernel = _kernel(SYSTEMS[name](), telemetry)
        packet = _FLOWS[0]
        _warm(kernel, packet)
        one = _frames_opened(lambda: kernel.run([(4.0, packet)]))
        many = _frames_opened(lambda: kernel.run([(4.5, packet)] * 101))
        assert many - one == 100
        depth = telemetry.registry.get("repro_lookup_depth")
        (child,) = (child for _, child in depth.children())
        assert child.count == kernel.packet_count == 105

    @pytest.mark.parametrize("changed", [1, 2, 4])
    def test_a_stale_record_re_runs_a_changed_bucket_in_one_frame(
        self, changed
    ):
        """A stale record opens ``still_valid`` and one climb per bucket
        that changed — no ``LtmTable.lookup`` around it, no telemetry
        call — with metrics-only telemetry attached."""
        system, packet = _chain_system(4)
        kernel = _kernel(system, Telemetry())
        record = _warm(kernel, packet)
        kept = record.result
        fresh = _frames_opened(lambda: kernel.run([(4.0, packet)]))
        for table in system.cache.tables[:changed]:
            # Another port in the group the flow's rule is in: the
            # bucket changed, its winner and probe count did not.
            table.insert(ltm_rule({"tp_dst": 80}, tag=table.index))
        system.cache.bump_epoch()
        stale = _frames_opened(lambda: kernel.run([(4.5, packet)]))
        assert stale == fresh + 1 + changed
        assert kernel.fastpath.revalidated == 1
        assert record.result is kept

    @pytest.mark.parametrize("num_tables", [1, 4])
    def test_a_fresh_hit_opens_one_frame_on_any_chain(self, num_tables):
        system, packet = _chain_system(num_tables)
        kernel = _kernel(system)
        assert _warm(kernel, packet).result.tables_hit == num_tables
        one = _frames_opened(lambda: kernel.run([(4.0, packet)]))
        many = _frames_opened(lambda: kernel.run([(5.0, packet)] * 9))
        assert many - one == 8

    @pytest.mark.parametrize("num_tables", [1, 4])
    def test_a_stale_record_whose_buckets_held_still_opens_one_more(
        self, num_tables
    ):
        system, packet = _chain_system(num_tables)
        kernel = _kernel(system)
        _warm(kernel, packet)
        fastpath = kernel.fastpath
        fresh = _frames_opened(lambda: kernel.run([(4.0, packet)]))
        system.cache.bump_epoch()
        stale = _frames_opened(lambda: kernel.run([(5.0, packet)]))
        # One more than a fresh record: ``still_valid``, which re-runs
        # no lookup; the re-stamp and the replay are the lookup's own.
        assert stale == fresh + 1
        assert (fastpath.revalidated, fastpath.invalidations) == (1, 0)
        assert fastpath.memo_hits == 4

    def test_a_rewritten_flow_and_an_equal_fresh_one_share_a_record(self):
        # A set-field computes ``packed`` by XOR, not by packing the
        # values again; the memos key by it.
        rewritten = rewrite(flow(tp_dst=80), tp_dst=443)
        fresh = flow(tp_dst=443)
        assert rewritten.packed == fresh.packed
        cache, _ = _chain(2)
        fastpath = FastPathIndex(cache)
        assert fastpath.lookup(rewritten, now=1.0).hit
        assert fastpath.lookup(fresh, now=2.0).hit
        assert len(fastpath) == 1
        assert (fastpath.memo_hits, fastpath.memo_misses) == (1, 1)
        microflow = MicroflowCache(capacity=4)
        microflow.install(rewritten, ActionList([Output(1)]), now=0.0)
        assert microflow.lookup(fresh, now=1.0).hit
        microflow.install(fresh, ActionList([Output(2)]), now=2.0)
        assert microflow.entry_count() == 1
        assert microflow.stats.insertions == 1
        assert microflow.lookup(rewritten, now=3.0).actions == ActionList(
            [Output(2)]
        )


class TestCountersAtEveryCadence:
    """Whoever reads the memo's counters mid-run — the snapshot's delta
    fold above all — reads them exact: every packet already looked up
    is counted in ``memo_hits`` or ``memo_misses`` at every ``advance``
    and every ``Telemetry.sample``."""

    def test_memo_counters_are_exact_at_every_advance_and_sample(self):
        # serve_obs's shape, smaller: PSC at high locality, Gigaflow at
        # twice the flow count, micro-batches of 256 Packet objects,
        # sweeps and snapshots every second, 10 s idle expiry, metrics
        # on and tracing off.
        workload = seeded_workload(n_flows=150)
        trace = seeded_trace(workload, mean_flow_size=64, duration=16.0)
        telemetry = Telemetry()
        driver = ServingDriver(
            workload.pipeline,
            GigaflowSystem(num_tables=4, table_capacity=75),
            SimConfig(
                max_idle=10.0, sweep_interval=1.0, telemetry=telemetry
            ),
            ServeConfig(batch_size=256),
        ).start()
        kernel = driver._kernel
        fastpath, stats = kernel.fastpath, kernel.cache.stats
        replays = telemetry.registry.get("repro_fastpath_replays_total")
        checked = {"advance": 0, "sample": 0}

        def looked_up_so_far():
            return fastpath.memo_hits + fastpath.memo_misses

        advance = kernel.advance

        def checked_advance(now):
            # The packet that reached the deadline is not looked up yet.
            assert looked_up_so_far() == stats.hits + stats.misses
            checked["advance"] += 1
            return advance(now)

        sample = telemetry.sample

        def checked_sample(cache, now):
            snapshot = sample(cache, now)
            assert [child.value for _, child in replays.children()] == [
                fastpath.memo_hits
            ]
            checked["sample"] += 1
            return snapshot

        kernel.advance = checked_advance
        telemetry.sample = checked_sample
        packets = list(stream_trace(trace))
        for at in range(0, len(packets), 256):
            driver.process(packets[at:at + 256])
            assert looked_up_so_far() == stats.hits + stats.misses
        driver.finish()
        assert looked_up_so_far() == len(packets)
        assert checked["advance"] >= 15 and checked["sample"] >= 15
        assert fastpath.memo_hits > len(packets) // 2
        assert fastpath.revalidated and fastpath.invalidations


# One small PSC universe for the property test: the pipeline is only
# read (``execute`` without stats), so every example can share it.
_UNIVERSE = build_workload(PSC, n_flows=40, locality="high", seed=5)
#: Few enough flows that each returns often, to a cache that changed.
_FLOWS = [pilot.flow for pilot in _UNIVERSE.pilots[:12]]
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("packet",) * 12
            + ("whole", "whole", "outrank", "outrank", "idle", "remove", "clear")
        ),
        st.integers(0, 63),
    ),
    min_size=40,
    max_size=250,
)


def _recency(cache):
    """Every table's rules in LRU order, by value, with their use time
    (rule ids differ between twins): all that a hit writes."""
    return [
        [(rule.identity, rule.last_used)
         for rule in table._by_id.values()]
        for table in cache.tables
    ]


def _memo_against_twin(ops, num_tables, table_capacity, placement):
    """Installs in both partition modes (with capacity eviction behind
    them), idle sweeps, single-rule removals and ``clear()`` interleaved
    with packets: a stale record must say it is still valid exactly
    when the side-effect-free walk finds its chain, and then reproduce
    the walk's ``groups_probed`` and ``tables_hit``; and the fast path as a whole must answer every
    packet as a twin cache without one does and leave every rule's
    recency where the twin's full lookups leave them.
    Returns how many packets' walks dead-ended (matched, then missed)."""
    pipeline = _UNIVERSE.pipeline
    cache, twin = (
        GigaflowCache(
            num_tables=num_tables,
            table_capacity=table_capacity,
            placement=placement,
        )
        for _ in range(2)
    )
    fastpath = FastPathIndex(cache)
    now = 0.0
    dead_ends = 0
    for op, arg in ops:
        now += 0.25
        if op == "packet":
            packet = _FLOWS[arg % len(_FLOWS)]
            record = fastpath._memo.get(packet.packed)
            if record is not None and record.epoch != cache.mutation_epoch:
                walk = full_walk(cache, packet)
                same_chain = walk[0] and walk[1] == chain_of(record)
                assert record.still_valid() == same_chain
                if same_chain:
                    assert recorded(record) == walk
            result = fastpath.lookup(packet, now)
            assert result == twin.lookup(packet, now)
            if not result.hit:
                dead_ends += result.tables_hit > 0
                traversal = pipeline.execute(packet, record_stats=False)
                for each in (cache, twin):
                    each.install_traversal(traversal, now=now)
        elif op == "whole":
            # A Megaflow-mode install (AdaptiveGigaflowCache): one
            # long rule that outranks a resident chain's head.
            traversal = pipeline.execute(
                _FLOWS[arg % len(_FLOWS)], record_stats=False
            )
            for each in (cache, twin):
                each.partitioner = megaflow_partition
                each.install_traversal(traversal, now=now)
                each.partitioner = disjoint_partition
        elif op == "outrank":
            # A longer sub-traversal with the same match as the head
            # of a resident chain (a differently partitioned
            # install): whether or not it moves the probe order, it
            # is the new winner.
            packet = _FLOWS[arg % len(_FLOWS)]
            for each in (cache, twin):
                hit, matched, _probes, _depth = full_walk(each, packet)
                if hit:
                    table, head = matched[0]
                    longer = LtmRule(
                        head.tag, head.match, head.priority + 1,
                        ActionList([Output(77)]), TAG_DONE,
                        head.parent_flow, now=now,
                    )
                    if table.insert(longer):
                        each.stats.insertions += 1
                        each.bump_epoch()
        elif op == "idle":
            now += 1 + arg % 6
            for each in (cache, twin):
                each.evict_idle(now, max_idle=3.0)
        elif op == "remove":
            for each in (cache, twin):
                resident = list(each)
                if resident:
                    each.remove(resident[arg % len(resident)], "reval")
        else:
            for each in (cache, twin):
                each.clear()
        assert cache.stats == twin.stats
        assert _recency(cache) == _recency(twin)
    return dead_ends


#: Four tables of five rules against twelve flows returning in turn:
#: eviction keeps splitting chains, so walks dead-end at stranded heads.
_DEAD_END_OPS = [("packet", i % 12) for i in range(48)]


class TestValidationSoundness:
    @settings(max_examples=60, deadline=None)
    # The one shape random interleavings rarely reach: flow 1's longer
    # rule raises the head group's best priority first, so flow 0's
    # then joins the group without moving any probe count — only the
    # re-run lookup's winner can tell flow 0's record it is stale.
    @example(
        ops=[
            ("packet", 0), ("packet", 1), ("outrank", 1),
            ("packet", 0), ("outrank", 0), ("packet", 0),
        ],
        num_tables=4,
        table_capacity=24,
        placement="balanced",
    )
    @example(
        ops=_DEAD_END_OPS, num_tables=4, table_capacity=5,
        placement="balanced",
    )
    @given(
        ops=_OPS,
        num_tables=st.sampled_from((1, 2, 4)),
        table_capacity=st.integers(3, 24),
        placement=st.sampled_from(("balanced", "earliest")),
    )
    def test_still_valid_implies_the_full_walk_agrees(
        self, ops, num_tables, table_capacity, placement
    ):
        _memo_against_twin(ops, num_tables, table_capacity, placement)

    def test_dead_ends_leave_memo_and_full_lookup_alike(self):
        """The explicit dead-end example above does dead-end: a walk
        that matched a head and missed touched nothing, in the memo's
        cache and in its twin alike."""
        assert _memo_against_twin(_DEAD_END_OPS, 4, 5, "balanced") > 0


@pytest.mark.soak
def test_soak_one_tag_under_endless_install_and_evict_stays_bounded(
    monkeypatch,
):
    """50 K install / capacity-evict cycles through one ``(table, tag)``
    bucket with a returning flow in between: what validation keeps —
    the tag's counter, each record's per-table account, the memo —
    must not grow with the number of cycles, and the returning flow's
    record, whose bucket changed every cycle, is re-validated every
    time rather than re-walked."""
    monkeypatch.setattr(fastpath_module, "MEMO_ENTRIES", 64)
    cache = GigaflowCache(num_tables=1, table_capacity=4)
    fastpath = FastPathIndex(cache)
    dependency = cache.tables[0].dependencies[0]
    regular = flow(tp_dst=443)
    cache.install_rules([ltm_rule({"tp_dst": 443})])
    cycles = 50_000
    for i in range(cycles):
        now = float(i)
        visitor = {"tp_src": i & 0xFFFF, "tp_dst": 1 + (i >> 16)}
        cache.install_rules([ltm_rule(visitor, priority=1 + i % 3)])
        assert fastpath.lookup(flow(**visitor), now).hit
        assert fastpath.lookup(regular, now).hit  # keeps its rule warm
        assert len(fastpath._memo[regular.packed].steps) == 7
    assert cache.stats.evictions == cycles + 1 - 4
    assert dependency.changes == 1 + cycles + cache.stats.evictions
    assert len(fastpath) <= 64
    # Never dropped as stale; re-walked only when the bounded memo was
    # cleared wholesale (once per 63 visitors).
    assert fastpath.invalidations == 0
    assert fastpath.revalidated > cycles - cycles // 60
