"""Tests for control-plane churn: schedules, events, budgeted revalidation.

The contracts pinned here, in order:

* **Schedule semantics** — events sort stably by time, builders are
  deterministic under a seed, and malformed schedules fail loudly at
  construction (not mid-run).
* **Event application** — inserts and removes pair through their key,
  bump the pipeline generation, and reject misuse (duplicate install,
  remove-before-insert); priority shuffles permute *within*
  same-``next_table`` groups only, so the table graph is preserved and
  two identically built pipelines shuffle identically.
* **Budgeted revalidation** — :class:`IncrementalRevalidator`'s backlog
  is exactly the live entries stranded behind the pipeline generation:
  it drains under a finite budget across ticks, drains in one pass with
  budget 0, and once drained a full sweep finds nothing left to evict.
* **Gating** — caches without a revalidator (the OVS hierarchy) are
  rejected when churn is configured, at ``run()`` time with a clear
  error.
"""

import pytest

from conftest import seeded_trace, seeded_workload
from repro.core import IncrementalRevalidator
from repro.sim import (
    ChurnConfig,
    GigaflowSystem,
    HierarchySystem,
    MegaflowSystem,
    SimConfig,
    VSwitchSimulator,
)
from repro.workload import (
    ChurnSchedule,
    InsertRule,
    RemoveRule,
    RuleSpec,
    ShufflePriorities,
    acl_update_schedule,
    insert_delete_storm,
)

#: The PSC ACL stage — where ``examples/acl_policy_update.py`` pushes
#: its deny, and where every storm in this module lands.
ACL_TABLE = 5


def deny_spec(value=0x0A000001, priority=10_000):
    return RuleSpec(
        table_id=ACL_TABLE,
        fields=(("ip_src", value),),
        priority=priority,
    )


# ---------------------------------------------------------------------------
# Schedules and builders


class TestChurnSchedule:
    def test_events_sort_by_time_stably(self):
        spec = deny_spec()
        schedule = ChurnSchedule(
            [
                RemoveRule(at=2.0, key="a"),
                InsertRule(at=1.0, spec=spec, key="a"),
                InsertRule(at=2.0, spec=spec, key="b"),
            ]
        )
        assert [event.at for event in schedule] == [1.0, 2.0, 2.0]
        # Same-timestamp events keep build order (remove "a" was listed
        # before insert "b"): the sort is stable.
        assert [event.kind for event in schedule] == [
            "insert", "delete", "insert",
        ]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ChurnSchedule([InsertRule(at=-0.5, spec=deny_spec(), key="x")])

    def test_merged_with_interleaves(self):
        first = acl_update_schedule(ACL_TABLE, 3.0)
        second = insert_delete_storm(
            seeded_workload().pilots, ACL_TABLE,
            start=1.0, count=2, gap=4.0, hold=1.0,
        )
        merged = first.merged_with(second)
        assert len(merged) == len(first) + len(second)
        times = [event.at for event in merged]
        assert times == sorted(times)

    def test_storm_builder_is_seed_deterministic(self):
        pilots = seeded_workload().pilots
        kwargs = dict(start=1.0, count=8, gap=0.5, hold=2.0)
        one = insert_delete_storm(pilots, ACL_TABLE, seed=7, **kwargs)
        two = insert_delete_storm(pilots, ACL_TABLE, seed=7, **kwargs)
        other = insert_delete_storm(pilots, ACL_TABLE, seed=8, **kwargs)
        assert one.events == two.events
        assert one.events != other.events
        # Every insert has its paired delete, hold seconds later.
        inserts = [e for e in one if isinstance(e, InsertRule)]
        removes = {e.key: e.at for e in one if isinstance(e, RemoveRule)}
        assert len(inserts) == 8
        for insert in inserts:
            assert removes[insert.key] == pytest.approx(insert.at + 2.0)

    def test_storm_validation(self):
        pilots = seeded_workload().pilots
        with pytest.raises(ValueError, match="count"):
            insert_delete_storm(
                pilots, ACL_TABLE, start=0, count=0, gap=1, hold=1
            )
        with pytest.raises(ValueError, match="gap and hold"):
            insert_delete_storm(
                pilots, ACL_TABLE, start=0, count=1, gap=0, hold=1
            )
        with pytest.raises(ValueError, match="no flows"):
            insert_delete_storm(
                [], ACL_TABLE, start=0, count=1, gap=1, hold=1
            )

    def test_acl_update_revert_must_follow_install(self):
        with pytest.raises(ValueError, match="revert_at"):
            acl_update_schedule(ACL_TABLE, 5.0, revert_at=5.0)

    def test_churn_config_validation(self):
        schedule = acl_update_schedule(ACL_TABLE, 1.0)
        # Revalidation ticks ride the sweep cadence, which must advance.
        for interval in (0.0, -1.0):
            with pytest.raises(ValueError, match="sweep_interval"):
                SimConfig(
                    sweep_interval=interval,
                    churn=ChurnConfig(schedule=schedule),
                )
        with pytest.raises(ValueError, match="reval_budget"):
            ChurnConfig(schedule=schedule, reval_budget=-1)


# ---------------------------------------------------------------------------
# Event application


class TestEventApplication:
    def test_insert_then_remove_round_trips(self):
        pipeline = seeded_workload().pipeline
        table = pipeline.tables[ACL_TABLE]
        rules_before = len(list(table))
        generation = pipeline.generation
        installed = {}

        outcome = InsertRule(at=1.0, spec=deny_spec(), key="k").apply(
            pipeline, installed
        )
        assert (outcome.installed, outcome.removed) == (1, 0)
        assert len(list(table)) == rules_before + 1
        assert pipeline.generation > generation
        assert set(installed) == {"k"}

        generation = pipeline.generation
        outcome = RemoveRule(at=2.0, key="k").apply(pipeline, installed)
        assert (outcome.installed, outcome.removed) == (0, 1)
        assert len(list(table)) == rules_before
        assert pipeline.generation > generation
        assert installed == {}

    def test_duplicate_insert_key_rejected(self):
        pipeline = seeded_workload().pipeline
        installed = {}
        InsertRule(at=1.0, spec=deny_spec(), key="k").apply(
            pipeline, installed
        )
        with pytest.raises(ValueError, match="already installed"):
            InsertRule(at=2.0, spec=deny_spec(0x0A000002), key="k").apply(
                pipeline, installed
            )

    def test_remove_without_insert_rejected(self):
        pipeline = seeded_workload().pipeline
        with pytest.raises(ValueError, match="never installed"):
            RemoveRule(at=1.0, key="ghost").apply(pipeline, {})

    def test_event_kinds(self):
        assert InsertRule(at=0, spec=deny_spec(), key="k").kind == "insert"
        assert RemoveRule(at=0, key="k").kind == "delete"
        assert ShufflePriorities(at=0, table_id=1).kind == "shuffle"
        sched = acl_update_schedule(ACL_TABLE, 1.0, revert_at=2.0)
        assert [e.kind for e in sched] == ["acl_update", "acl_revert"]


class TestPriorityShuffle:
    def test_preserves_table_graph_and_priority_multisets(self):
        pipeline = seeded_workload().pipeline
        table = pipeline.tables[ACL_TABLE]

        def shape(rules):
            by_next = {}
            for rule in rules:
                by_next.setdefault(rule.next_table, []).append(
                    rule.priority
                )
            return {k: sorted(v) for k, v in by_next.items()}

        before = shape(list(table))
        outcome = ShufflePriorities(at=1.0, table_id=ACL_TABLE, seed=3).apply(
            pipeline, {}
        )
        after = shape(list(table))
        # Re-ranking moves priorities *within* next_table groups only:
        # per-group priority multisets (and thus the reachable table
        # graph) are invariant.
        assert before == after
        assert outcome.installed == outcome.removed

    def test_identical_pipelines_shuffle_identically(self):
        results = []
        for _ in range(2):
            pipeline = seeded_workload().pipeline
            ShufflePriorities(at=1.0, table_id=ACL_TABLE, seed=9).apply(
                pipeline, {}
            )
            rules = sorted(
                pipeline.tables[ACL_TABLE],
                key=lambda r: (
                    -r.priority, -r.match.specificity(), r.rule_id
                ),
            )
            results.append(
                [(r.priority, r.next_table) for r in rules]
            )
        assert results[0] == results[1]

    def test_shuffle_keeps_churn_handles_live(self):
        # A shuffle replaces rule *objects* (remove + reinstall at the
        # new priority).  Handles held for a pending RemoveRule must
        # follow the replacement, or the remove would target a rule no
        # longer in the table.
        pipeline = seeded_workload().pipeline
        installed = {}
        for i in range(4):
            InsertRule(
                at=0, spec=deny_spec(0x0A000001 + i, priority=100 + i),
                key=f"k{i}",
            ).apply(pipeline, installed)
        ShufflePriorities(at=1.0, table_id=ACL_TABLE, seed=1).apply(
            pipeline, installed
        )
        for i in range(4):
            RemoveRule(at=2.0, key=f"k{i}").apply(pipeline, installed)
        assert installed == {}

    def test_noop_on_singleton_groups(self, mini_pipeline):
        # Every mini-pipeline table holds one rule: nothing to permute.
        generation = mini_pipeline.generation
        outcome = ShufflePriorities(at=1.0, table_id=0, seed=1).apply(
            mini_pipeline, {}
        )
        assert (outcome.installed, outcome.removed) == (0, 0)
        assert mini_pipeline.generation == generation


# ---------------------------------------------------------------------------
# Budgeted revalidation


def populated_system(system_factory):
    """Run a seeded trace once so the cache holds live entries."""
    workload = seeded_workload()
    system = system_factory()
    simulator = VSwitchSimulator(
        workload.pipeline, system, SimConfig(max_idle=0.0)
    )
    simulator.run(seeded_trace(workload))
    return workload.pipeline, system


@pytest.mark.parametrize("system_factory", [
    lambda: GigaflowSystem(num_tables=4, table_capacity=400),
    lambda: MegaflowSystem(capacity=400),
], ids=["gigaflow", "megaflow"])
class TestIncrementalRevalidator:
    def test_clean_pipeline_has_no_backlog(self, system_factory):
        pipeline, system = populated_system(system_factory)
        revalidator = IncrementalRevalidator(pipeline, system.cache)
        # Fast path: nothing changed since the entries were installed.
        assert revalidator.stale_entries() == []
        assert revalidator.backlog() == 0
        report, backlog = revalidator.process(now=10.0, budget=8)
        assert report.entries_checked == 0
        assert backlog == 0

    def test_budget_drains_backlog_across_ticks(self, system_factory):
        pipeline, system = populated_system(system_factory)
        revalidator = IncrementalRevalidator(pipeline, system.cache)
        InsertRule(at=0, spec=deny_spec(), key="k").apply(pipeline, {})
        initial = revalidator.backlog()
        assert initial > 0  # every live entry is now stranded

        budget = 16
        ticks = 0
        backlog = initial
        while backlog:
            report, backlog = revalidator.process(now=10.0, budget=budget)
            assert report.entries_checked <= budget
            ticks += 1
            assert ticks <= initial  # must make monotone progress
        assert ticks >= initial // budget
        assert revalidator.total_checked >= initial

        # Once drained, a full sweep agrees there is nothing stale left.
        report = revalidator.revalidate(now=10.0)
        assert report.entries_evicted == 0
        assert revalidator.backlog() == 0

    def test_zero_budget_drains_in_one_pass(self, system_factory):
        pipeline, system = populated_system(system_factory)
        revalidator = IncrementalRevalidator(pipeline, system.cache)
        InsertRule(at=0, spec=deny_spec(), key="k").apply(pipeline, {})
        assert revalidator.backlog() > 0
        _report, backlog = revalidator.process(now=10.0, budget=0)
        assert backlog == 0
        assert revalidator.backlog() == 0

    def test_capacity_evictions_shrink_backlog_for_free(self, system_factory):
        # The backlog is a *definition* over live entries, not a queue:
        # entries that leave the cache for any reason leave it too.
        pipeline, system = populated_system(system_factory)
        revalidator = IncrementalRevalidator(pipeline, system.cache)
        InsertRule(at=0, spec=deny_spec(), key="k").apply(pipeline, {})
        before = revalidator.backlog()
        victim = next(iter(system.cache))
        system.cache.remove(victim, "test")
        assert revalidator.backlog() == before - 1


class TestChurnGating:
    def test_hierarchy_cache_rejected(self):
        workload = seeded_workload()
        system = HierarchySystem()
        with pytest.raises(TypeError, match="no revalidator"):
            IncrementalRevalidator(workload.pipeline, system.cache)

    def test_hierarchy_run_with_churn_raises(self):
        workload = seeded_workload()
        config = SimConfig(
            sweep_interval=1.0,
            churn=ChurnConfig(schedule=acl_update_schedule(ACL_TABLE, 1.0)),
        )
        simulator = VSwitchSimulator(
            workload.pipeline, HierarchySystem(), config
        )
        with pytest.raises(TypeError, match="no revalidator"):
            simulator.run(seeded_trace(workload))

    def test_churn_that_is_not_a_config_raises_naming_its_type(self):
        workload = seeded_workload()
        schedule = acl_update_schedule(ACL_TABLE, 1.0)
        config = SimConfig(sweep_interval=1.0, churn=schedule)
        simulator = VSwitchSimulator(
            workload.pipeline, GigaflowSystem(), config
        )
        with pytest.raises(
            TypeError, match="takes a ChurnConfig, got ChurnSchedule"
        ):
            simulator.run(seeded_trace(workload))
