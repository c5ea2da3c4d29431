"""Tests for cache revalidation (§4.3)."""

import copy
import types

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache import MegaflowCache, MegaflowEntry, build_megaflow_entry
from repro.core import (
    TAG_DONE,
    GigaflowCache,
    IncrementalRevalidator,
    LtmRule,
    build_ltm_rule,
)
from repro.flow import ActionList, Drop, Output, TernaryMatch, ip, prefix_mask
from repro.pipeline import ENTRY_TABLE, PSC, PipelineRule
from repro.workload import build_workload
from repro.workload.churn import ShufflePriorities
from conftest import DIFFERENTIAL, flow, rule


@pytest.fixture
def filled(mini_pipeline, default_flow):
    megaflow = MegaflowCache(capacity=32)
    gigaflow = GigaflowCache(num_tables=4, table_capacity=32)
    traversal = mini_pipeline.execute(default_flow)
    megaflow.install_traversal(traversal)
    gigaflow.install_traversal(traversal)
    return mini_pipeline, megaflow, gigaflow


class TestConsistentPipeline:
    def test_nothing_evicted_when_consistent(self, filled):
        pipeline, megaflow, gigaflow = filled
        mf_report = IncrementalRevalidator(pipeline, megaflow).revalidate()
        gf_report = IncrementalRevalidator(pipeline, gigaflow).revalidate()
        assert mf_report.entries_evicted == 0
        assert gf_report.entries_evicted == 0
        assert megaflow.entry_count() == 1
        assert gigaflow.entry_count() > 0

    def test_gigaflow_replays_fewer_lookups_total(self, filled):
        """Sub-traversal replays cost per-rule length; a Megaflow entry
        replays the full traversal.  With shared rules Gigaflow's total is
        at most Megaflow's (and strictly less once sharing kicks in)."""
        pipeline, megaflow, gigaflow = filled
        # Install a second flow sharing the L2 side.
        pipeline.install(
            3, rule({"ip_proto": 6, "tp_dst": 80}, actions=[Output(3)])
        )
        second = flow(tp_dst=80)
        megaflow.install_traversal(pipeline.execute(second))
        gigaflow.install_traversal(pipeline.execute(second))
        mf = IncrementalRevalidator(pipeline, megaflow).revalidate()
        gf = IncrementalRevalidator(pipeline, gigaflow).revalidate()
        assert gf.lookups_performed < mf.lookups_performed


class TestRuleChangeEviction:
    def test_megaflow_evicts_on_action_change(self, filled):
        pipeline, megaflow, _ = filled
        # Override the ACL verdict with a higher-priority rule.
        pipeline.install(
            3,
            rule({"ip_proto": 6, "tp_dst": 443}, priority=999,
                 actions=[Output(42)]),
        )
        report = IncrementalRevalidator(pipeline, megaflow).revalidate()
        assert report.entries_evicted == 1
        assert megaflow.entry_count() == 0

    def test_gigaflow_evicts_only_stale_sub_traversals(self, filled):
        """§4.3.2: only the sub-traversal touching the changed table is
        evicted; sibling segments survive."""
        pipeline, _, gigaflow = filled
        before = gigaflow.entry_count()
        pipeline.install(
            3,
            rule({"ip_proto": 6, "tp_dst": 443}, priority=999,
                 actions=[Output(42)]),
        )
        report = IncrementalRevalidator(pipeline, gigaflow).revalidate()
        assert report.entries_evicted >= 1
        assert gigaflow.entry_count() == before - report.entries_evicted
        assert gigaflow.entry_count() > 0  # L2-side rules survive

    def test_next_hop_change_evicts_chain_link(self, filled):
        pipeline, _, gigaflow = filled
        # Redirect the l3 table to a different (now dropping) ACL rule.
        pipeline.install(
            2,
            rule({"ip_dst": ip("192.168.1.7")},
                 masks={"ip_dst": prefix_mask(32)},
                 priority=999, next_table=3),
        )
        report = IncrementalRevalidator(pipeline, gigaflow).revalidate()
        assert report.entries_evicted >= 1


class TestIdleSweep:
    def test_sweep_idle_delegates(self, filled):
        _, megaflow, gigaflow = filled
        assert megaflow.evict_idle(now=1000.0, max_idle=1.0) == 1
        assert gigaflow.evict_idle(now=1000.0, max_idle=1.0) > 0


# -- scoped revalidation against the replay-always reference -----------------


def replay_always(self, entry, now):
    """The per-entry check before revalidation was scoped: replay every
    entry, whatever changed.  The reference the scoped check is held to
    — verdict, lookups charged, stamps left, telemetry — bound to a
    revalidator in place of its own ``check_entry``."""
    pipeline = self.pipeline
    if isinstance(entry, MegaflowEntry):
        replay = pipeline.replay(
            entry.parent_flow, ENTRY_TABLE, entry.length
        )
        regenerated = build_megaflow_entry(replay, pipeline.generation, now)
        stale = (
            regenerated.match != entry.match
            or regenerated.actions != entry.actions
        )
    else:
        replay = pipeline.replay(entry.parent_flow, entry.tag, entry.length)
        stale = len(replay) != entry.length
        if not stale:
            regenerated = build_ltm_rule(
                replay.sub(0, len(replay)), pipeline.generation, now
            )
            stale = (
                regenerated.match != entry.match
                or regenerated.actions != entry.actions
                or regenerated.next_tag != entry.next_tag
            )
    if stale:
        self.cache.remove(entry, "reval")
        verdict = "evicted"
    else:
        entry.generation = entry.verified = pipeline.generation
        entry.path = replay.table_ids
        verdict = "consistent"
    tel = self.cache.telemetry
    if tel is not None:
        tel.on_revalidate(self.cache.telemetry_name, verdict, len(replay), now)
    return verdict, len(replay)


def _key(entry):
    if isinstance(entry, LtmRule):
        return entry.identity, entry.priority
    return entry.match


def _stamps(cache):
    """Every resident entry, by value, with its three stamps."""
    return [
        (_key(entry), entry.generation, entry.verified, entry.path)
        for entry in cache
    ]


def _logged(check, log):
    def logging_check(entry, now):
        key = _key(entry)
        verdict, lookups = check(entry, now)
        log.append((key, verdict, lookups))
        return verdict, lookups
    return logging_check


_PSC = build_workload(PSC, n_flows=30, locality="high", seed=5)
_CHURN_FLOWS = [pilot.flow for pilot in _PSC.pilots[:10]]
_CHURN_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("install",) * 6
            + ("late", "late", "deny", "deny", "remove", "remove",
               "direct_insert", "direct_remove", "clear", "shuffle",
               "reval", "reval", "sweep")
        ),
        st.integers(0, 1 << 16),
    ),
    min_size=10,
    max_size=60,
)


def _deny(pipeline, arg):
    """A deny rule for one of the flows, in a table it visits, on one
    of that table's fields, at a priority that may or may not win."""
    traversal = pipeline.execute(
        _CHURN_FLOWS[arg % len(_CHURN_FLOWS)], record_stats=False
    )
    step = traversal.steps[arg // 7 % len(traversal)]
    table = pipeline.table(step.table_id)
    name = table.match_fields[arg // 5 % len(table.match_fields)]
    return step.table_id, PipelineRule(
        match=TernaryMatch.from_fields({name: step.flow_before.get(name)}),
        priority=(1, 10_000)[arg % 2],
        actions=ActionList([Drop()]),
    )


def _churn_against_reference(ops, scope_megaflow):
    """Two twin caches over one pipeline under churn: one revalidated by
    the scoped check, the other by :func:`replay_always`.  Returns the
    two logs of ``(entry, verdict, lookups)`` and how many replays the
    two made together."""
    pipeline = copy.deepcopy(_PSC.pipeline)
    replays = []
    real_replay = pipeline.replay
    pipeline.replay = lambda *a: replays.append(a) or real_replay(*a)
    make = (
        (lambda: MegaflowCache(capacity=12)) if scope_megaflow
        else (lambda: GigaflowCache(num_tables=4, table_capacity=6))
    )
    scoped, reference = make(), make()
    logs = ([], [])
    revalidators = []
    for cache, log in zip((scoped, reference), logs):
        incremental = IncrementalRevalidator(pipeline, cache)
        check = (
            incremental.check_entry if cache is scoped
            else types.MethodType(replay_always, incremental)
        )
        incremental.check_entry = _logged(check, log)
        revalidators.append(incremental)
    walked = []
    now = 0.0
    for op, arg in ops:
        now += 1.0
        if op in ("install", "late"):
            if op == "late" and walked:
                traversal = walked[arg % len(walked)]
            else:
                traversal = pipeline.execute(
                    _CHURN_FLOWS[arg % len(_CHURN_FLOWS)],
                    record_stats=False,
                )
                walked.append(traversal)
            for cache in (scoped, reference):
                cache.install_traversal(traversal, pipeline.generation, now)
        elif op == "deny":
            pipeline.install(*_deny(pipeline, arg))
        elif op == "direct_insert":
            table_id, deny = _deny(pipeline, arg)
            pipeline.table(table_id).insert(deny)
        elif op in ("remove", "direct_remove"):
            table = pipeline.table(
                pipeline.table_ids[arg % len(pipeline.tables)]
            )
            rules = sorted(table, key=lambda r: r.rule_id)
            if rules:
                doomed = rules[arg // 11 % len(rules)]
                if op == "remove":
                    pipeline.remove(table.table_id, doomed)
                else:
                    table.remove(doomed)
        elif op == "clear":
            pipeline.table(
                pipeline.table_ids[arg % len(pipeline.tables)]
            ).clear()
        elif op == "shuffle":
            ShufflePriorities(
                at=now,
                table_id=pipeline.table_ids[arg % len(pipeline.tables)],
                seed=arg,
            ).apply(pipeline, {})
        elif op == "reval":
            budget = arg % 4 * 3  # 0: no limit
            outcomes = [
                each.process(now, budget)[1] for each in revalidators
            ]
            assert outcomes[0] == outcomes[1]
        else:
            reports = [each.revalidate(now) for each in revalidators]
            assert reports[0] == reports[1]
        assert logs[0] == logs[1]
        assert _stamps(scoped) == _stamps(reference)
        assert [each.backlog() for each in revalidators] == [
            revalidators[1].backlog()
        ] * 2
    return logs, len(replays)


class TestScopedRevalidationAgainstReplayAlways:
    """Skipping the replay of an entry none of whose tables changed is
    invisible: same verdict per entry, same lookups charged, same
    stamps, same evictions, as replaying every entry."""

    @settings(DIFFERENTIAL, max_examples=120)
    @given(ops=_CHURN_OPS, scope_megaflow=st.booleans())
    def test_same_verdicts_charges_stamps_and_evictions(
        self, ops, scope_megaflow
    ):
        _churn_against_reference(ops, scope_megaflow)

    @pytest.mark.parametrize("scope_megaflow", (False, True))
    def test_the_check_is_exercised_both_ways(self, scope_megaflow):
        """A fixed sequence in which the scoped check skips replays,
        replays, and evicts."""
        ops = (
            [("install", i) for i in range(10)]
            + [("deny", 3), ("reval", 0), ("shuffle", 4), ("sweep", 0)]
            + [("install", i) for i in range(10)]
            + [("deny", 8), ("late", 2), ("remove", 5), ("reval", 1)]
            + [("reval", 0), ("sweep", 0)]
        )
        (scoped, reference), replays = _churn_against_reference(
            ops, scope_megaflow
        )
        assert {verdict for _, verdict, _ in scoped} == {
            "consistent", "evicted",
        }
        # The reference replays every check; the scoped side some.
        assert 0 < replays - len(reference) < len(scoped)


class TestStamps:
    def test_a_rule_is_stamped_with_its_walk_not_its_install(
        self, mini_pipeline, default_flow
    ):
        """A traversal walked before a change and installed after it,
        with the later ``generation=``, keeps the walk's stamp: the
        first check after the next change replays it, and finds it
        stale."""
        pipeline = mini_pipeline
        gigaflow = GigaflowCache(num_tables=4, table_capacity=32)
        megaflow = MegaflowCache(capacity=32)
        traversal = pipeline.execute(default_flow)
        walked = pipeline.generation
        pipeline.install(
            3,
            rule({"ip_proto": 6, "tp_dst": 443}, priority=999,
                 actions=[Output(42)]),
        )
        later = pipeline.generation
        gigaflow.install_traversal(traversal, later)
        megaflow.install_traversal(traversal, later)
        entries = list(gigaflow) + list(megaflow)
        assert all(e.generation == later for e in entries)
        assert all(e.verified == walked for e in entries)
        assert {e.path for e in megaflow} == {traversal.table_ids}
        # A change after the install, in a table only the head spans:
        # the ACL rule's table last changed before ``later``, after
        # ``walked``.
        pipeline.install(0, rule({"in_port": 77}, next_table=1))
        replays = []
        real_replay = pipeline.replay
        pipeline.replay = lambda *a: replays.append(a) or real_replay(*a)
        acl = next(r for r in gigaflow if r.tag == 3)
        gf = IncrementalRevalidator(pipeline, gigaflow).revalidate()
        mf = IncrementalRevalidator(pipeline, megaflow).revalidate()
        assert sorted(start for _, start, _ in replays) == [0, 0, 3]
        assert gf.entries_evicted == mf.entries_evicted == 1
        assert acl not in list(gigaflow) and not megaflow.entry_count()

    def test_unchanged_tables_skip_the_replay(
        self, mini_pipeline, default_flow
    ):
        pipeline = mini_pipeline
        gigaflow = GigaflowCache(num_tables=4, table_capacity=32)
        gigaflow.install_traversal(
            pipeline.execute(default_flow), pipeline.generation
        )
        pipeline.install(3, rule({"ip_proto": 17}, actions=[Output(2)]))
        replays = []
        real_replay = pipeline.replay
        pipeline.replay = lambda *a: replays.append(a) or real_replay(*a)
        report = IncrementalRevalidator(pipeline, gigaflow).revalidate()
        # Only the rules spanning table 3 replay; each still agrees.
        touched = [r for r in gigaflow if 3 in r.path]
        assert len(replays) == len(touched) < report.entries_checked
        assert report.entries_evicted == 0
        assert report.lookups_performed == sum(r.length for r in gigaflow)
        assert all(
            r.verified == r.generation == pipeline.generation
            for r in gigaflow
        )

    def test_a_refreshed_megaflow_entry_always_replays(
        self, mini_pipeline, default_flow
    ):
        pipeline = mini_pipeline
        megaflow = MegaflowCache(capacity=4)
        traversal = pipeline.execute(default_flow)
        megaflow.install_traversal(traversal, pipeline.generation)
        megaflow.install_traversal(traversal, pipeline.generation)
        (entry,) = megaflow
        assert entry.verified is None
        replays = []
        real_replay = pipeline.replay
        pipeline.replay = lambda *a: replays.append(a) or real_replay(*a)
        report = IncrementalRevalidator(pipeline, megaflow).revalidate()
        assert len(replays) == 1 and report.entries_evicted == 0
        assert entry.verified == pipeline.generation

    def test_a_hand_built_rule_always_replays(self, mini_pipeline):
        gigaflow = GigaflowCache(num_tables=1, table_capacity=4)
        hand_built = LtmRule(
            tag=3,
            match=TernaryMatch.from_fields({"ip_proto": 6, "tp_dst": 443}),
            priority=1,
            actions=ActionList([Output(9)]),
            next_tag=TAG_DONE,
            parent_flow=flow(),
        )
        gigaflow.install_rules([hand_built])
        assert hand_built.verified is None and hand_built.path == ()
        verdict, lookups = IncrementalRevalidator(
            mini_pipeline, gigaflow
        ).check_entry(hand_built, 0.0)
        assert (verdict, lookups) == ("consistent", 1)
        assert hand_built.path == (3,)
        assert hand_built.verified == mini_pipeline.generation
