"""The slow-path memo: ``Pipeline.execute`` answers a flow it already
walked at this rule-set generation, and a remembered traversal derives
each slice's match and commit once.

The reference is the uncached walk, ``Pipeline._walk``: every execute
must return its steps and disposition, and ``pipeline.stats`` must be
the sum of the counted executes' walks.  A hypothesis machine drives
install / remove / a direct table insert / a priority shuffle / counted
and uncounted executes over a small flow pool; the plain tests pin the
memo's edges (a table change the pipeline cannot see, the bound, the
uncounted path, copies).
"""

import copy

import hypothesis.strategies as st
import pytest
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import GigaflowCache, build_ltm_rule
from repro.core.partition import disjoint_partition
from repro.cache import build_megaflow_entry
from repro.flow import Drop, Output, SetField, ip, prefix_mask
from repro.pipeline import Disposition, Pipeline, PipelineRule, PipelineTable
from repro.pipeline.pipeline import ENTRY_TABLE, MEMO_FLOWS
from conftest import DIFFERENTIAL, flow, rule as make_rule


def counting_lookups(monkeypatch):
    """Count every pipeline-table lookup from here on."""
    calls = []
    lookup = PipelineTable.lookup

    def counted(table, flow_key):
        calls.append(table.table_id)
        return lookup(table, flow_key)

    monkeypatch.setattr(PipelineTable, "lookup", counted)
    return calls


class TestMemo:
    def test_hit_returns_the_same_traversal_and_records(self, mini_pipeline,
                                                        default_flow,
                                                        monkeypatch):
        first = mini_pipeline.execute(default_flow)
        groups = mini_pipeline.stats.groups_probed
        calls = counting_lookups(monkeypatch)
        again = mini_pipeline.execute(flow())
        assert again is first
        assert calls == []
        stats = mini_pipeline.stats
        assert stats.executions == 2
        assert stats.lookups == 2 * len(first)
        assert stats.groups_probed == 2 * groups

    def test_counted_after_uncounted_does_no_lookup(self, mini_pipeline,
                                                    default_flow,
                                                    monkeypatch):
        probe = mini_pipeline.execute(default_flow, record_stats=False)
        assert mini_pipeline.stats.executions == 0
        calls = counting_lookups(monkeypatch)
        assert mini_pipeline.execute(default_flow) is probe
        assert calls == []
        assert mini_pipeline.stats.lookups == len(probe)

    def test_uncounted_always_walks(self, mini_pipeline, default_flow,
                                    monkeypatch):
        counted = mini_pipeline.execute(default_flow)
        calls = counting_lookups(monkeypatch)
        fresh = mini_pipeline.execute(default_flow, record_stats=False)
        assert calls == [0, 1, 2, 3]
        assert fresh is not counted and fresh == counted
        # The memo keeps what it had.
        assert mini_pipeline.execute(default_flow) is counted

    def test_disposition_probe_walks_and_files_nothing(
        self, mini_pipeline, default_flow, monkeypatch
    ):
        calls = counting_lookups(monkeypatch)
        disposition = mini_pipeline.disposition_of(default_flow)
        assert calls == [0, 1, 2, 3]
        assert mini_pipeline.stats.executions == 0
        traversal = mini_pipeline.execute(default_flow)
        assert calls == [0, 1, 2, 3] * 2
        assert traversal.disposition == disposition
        assert mini_pipeline.disposition_of(flow(in_port=99)) == (
            Disposition.CONTROLLER
        )

    def test_direct_table_insert_moves_generation_and_rewalks(
        self, mini_pipeline, default_flow, monkeypatch
    ):
        before = mini_pipeline.execute(default_flow)
        generation = mini_pipeline.generation
        mini_pipeline.tables[3].insert(
            make_rule({"ip_proto": 6, "tp_dst": 443}, priority=50,
                      actions=[Drop()])
        )
        assert mini_pipeline.generation == generation + 1
        calls = counting_lookups(monkeypatch)
        after = mini_pipeline.execute(default_flow)
        assert calls == [0, 1, 2, 3]
        assert after is not before
        assert after.steps[-1].actions.drops()

    def test_table_remove_and_clear_move_generation(self, mini_pipeline):
        table = mini_pipeline.tables[3]
        generation = mini_pipeline.generation
        table.remove(next(iter(table)))
        table.clear()
        assert mini_pipeline.generation == generation + 2

    def test_a_table_belongs_to_one_pipeline(self, mini_pipeline):
        with pytest.raises(ValueError, match="already a stage"):
            Pipeline("again", (mini_pipeline.tables[0],))

    def test_bound_forgets_the_oldest_first(self, mini_pipeline,
                                            monkeypatch):
        flows = [flow(tp_src=port) for port in range(MEMO_FLOWS + 1)]
        walked = [mini_pipeline.execute(f) for f in flows]
        calls = counting_lookups(monkeypatch)
        assert mini_pipeline.execute(flows[1]) is walked[1]
        assert mini_pipeline.execute(flows[-1]) is walked[-1]
        assert calls == []
        assert mini_pipeline.execute(flows[0]) is not walked[0]
        assert calls == [0, 1, 2, 3]

    def test_a_copy_starts_cold(self, mini_pipeline, default_flow,
                                monkeypatch):
        original = mini_pipeline.execute(default_flow)
        clone = copy.deepcopy(mini_pipeline)
        calls = counting_lookups(monkeypatch)
        walked = clone.execute(default_flow)
        assert calls == [0, 1, 2, 3]
        assert walked == original and walked is not original
        # The copy's stages bump the copy, not the original.
        generation = mini_pipeline.generation
        clone.tables[0].clear()
        assert mini_pipeline.generation == generation

    def test_replay_neither_reads_nor_files(self, mini_pipeline,
                                            default_flow, monkeypatch):
        replayed = mini_pipeline.replay(default_flow, 0, 4)
        calls = counting_lookups(monkeypatch)
        executed = mini_pipeline.execute(default_flow)
        assert calls == [0, 1, 2, 3]
        assert executed is not replayed


class TestSliceDerivation:
    def test_remembered_traversal_derives_each_slice_once(
        self, mini_pipeline, default_flow
    ):
        traversal = mini_pipeline.execute(default_flow)
        first = build_ltm_rule(traversal.sub(1, 3), generation=4, now=2.0)
        second = build_ltm_rule(traversal.sub(1, 3), generation=5, now=3.0)
        assert second is not first
        assert second.match is first.match
        assert second.actions is first.actions
        assert (second.generation, second.last_used) == (5, 3.0)
        assert second.rule_id != first.rule_id
        entry = build_megaflow_entry(traversal, 0)
        assert entry.match is traversal.match_and_commit(0, len(traversal))[0]

    def test_replay_derives_afresh_and_equal(self, mini_pipeline,
                                             default_flow):
        executed = mini_pipeline.execute(default_flow)
        replayed = mini_pipeline.replay(default_flow, 0, len(executed))
        for start, stop in ((0, 4), (0, 2), (2, 4), (3, 4)):
            derived = replayed.match_and_commit(start, stop)
            assert derived == executed.match_and_commit(start, stop)
            assert replayed.match_and_commit(start, stop)[0] is not derived[0]

    def test_megaflow_entry_is_the_whole_slice(self, mini_pipeline,
                                               default_flow):
        traversal = mini_pipeline.execute(default_flow, record_stats=False)
        entry = build_megaflow_entry(traversal, 0)
        whole = build_ltm_rule(traversal.sub(0, len(traversal)))
        assert (entry.match, entry.actions) == (whole.match, whole.actions)


class TestPartitionerIsNeverMemoized:
    def test_one_partitioner_call_per_install(self, mini_pipeline,
                                              default_flow):
        calls = []

        def counting(traversal, max_parts):
            calls.append(traversal)
            return disjoint_partition(traversal, max_parts)

        cache = GigaflowCache(num_tables=4, table_capacity=16,
                              partitioner=counting)
        traversal = mini_pipeline.execute(default_flow)
        assert mini_pipeline.execute(default_flow) is traversal
        cache.install_traversal(traversal)
        cache.install_traversal(traversal)
        assert calls == [traversal, traversal]


# -- differential: execute against the uncached walk ----------------------------

PORTS = (1, 2)
DSTS = (ip("10.1.1.5"), ip("10.1.2.5"), ip("10.2.1.5"))
TP_DSTS = (80, 443)
POOL = tuple(
    flow(in_port=port, ip_dst=dst, tp_dst=tp)
    for port in PORTS
    for dst in DSTS
    for tp in TP_DSTS
)

#: (table, values, masks, next table, actions) — the rules the machine
#: installs; each table jumps forward only, so no walk loops.
CANDIDATES = (
    (0, {"in_port": 1}, None, 1, (SetField("vlan_id", 7),)),
    (0, {"in_port": 2}, None, 2, ()),
    (1, {"ip_dst": ip("10.1.0.0")}, {"ip_dst": prefix_mask(16)}, 2, ()),
    (1, {"ip_dst": ip("10.1.2.0")}, {"ip_dst": prefix_mask(24)}, None,
     (Output(3),)),
    (1, {"ip_dst": ip("10.2.1.0")}, {"ip_dst": prefix_mask(24)}, 2,
     (SetField("tp_dst", 443),)),
    (2, {"tp_dst": 443}, None, None, (Output(1),)),
    (2, {"tp_dst": 80}, None, None, (Drop(),)),
)


def machine_pipeline() -> Pipeline:
    return Pipeline(
        "memo",
        (
            PipelineTable(0, "port", ("in_port",), miss_next_table=1),
            PipelineTable(1, "l3", ("ip_dst",), miss_next_table=2),
            PipelineTable(2, "l4", ("tp_dst",)),
        ),
    )


class MemoAgainstWalk(RuleBasedStateMachine):
    """Every execute equals the uncached walk; the stats are the sums
    of the counted walks."""

    def __init__(self):
        super().__init__()
        self.pipeline = machine_pipeline()
        self.resident = []  # (table id, rule)
        self.executions = 0
        self.lookups = 0
        self.groups = 0

    def make(self, candidate, priority):
        table_id, values, masks, next_table, actions = candidate
        return table_id, make_rule(values, masks, priority, actions,
                                   next_table)

    @rule(candidate=st.sampled_from(CANDIDATES),
          priority=st.sampled_from((10, 20, 30)))
    def install(self, candidate, priority):
        table_id, added = self.make(candidate, priority)
        self.pipeline.install(table_id, added)
        self.resident.append((table_id, added))

    @rule(candidate=st.sampled_from(CANDIDATES),
          priority=st.sampled_from((10, 20, 30)))
    def insert_into_table(self, candidate, priority):
        table_id, added = self.make(candidate, priority)
        self.pipeline.tables[table_id].insert(added)
        self.resident.append((table_id, added))

    @precondition(lambda self: self.resident)
    @rule(data=st.data())
    def remove(self, data):
        at = data.draw(st.integers(0, len(self.resident) - 1))
        table_id, removed = self.resident.pop(at)
        self.pipeline.remove(table_id, removed)

    @precondition(lambda self: self.resident)
    @rule(data=st.data(), priority=st.sampled_from((10, 20, 30)))
    def shuffle_priority(self, data, priority):
        at = data.draw(st.integers(0, len(self.resident) - 1))
        table_id, old = self.resident[at]
        moved = PipelineRule(
            match=old.match, priority=priority, actions=old.actions,
            next_table=old.next_table,
        )
        self.pipeline.remove(table_id, old)
        self.pipeline.install(table_id, moved)
        self.resident[at] = (table_id, moved)

    @rule(flow_key=st.sampled_from(POOL), counted=st.booleans())
    def execute(self, flow_key, counted):
        pipeline = self.pipeline
        steps, disposition, groups, _ = pipeline._walk(
            flow_key, ENTRY_TABLE, pipeline.max_depth
        )
        traversal = pipeline.execute(flow_key, record_stats=counted)
        assert traversal.steps == steps
        assert traversal.disposition == disposition
        if counted:
            self.executions += 1
            self.lookups += len(steps)
            self.groups += groups

    @invariant()
    def stats_are_the_walks(self):
        stats = self.pipeline.stats
        assert stats.executions == self.executions
        assert stats.lookups == self.lookups
        assert stats.groups_probed == self.groups


MemoAgainstWalk.TestCase.settings = DIFFERENTIAL
TestMemoAgainstWalk = MemoAgainstWalk.TestCase
