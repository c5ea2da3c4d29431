"""Unit tests for pipeline tables and traversal execution."""

import pytest

from repro.flow import (
    Controller,
    Drop,
    Output,
    SetField,
    ip,
    prefix_mask,
)
from repro.pipeline import (
    Disposition,
    Pipeline,
    PipelineLoopError,
    PipelineTable,
)
from conftest import flow, rule


class TestPipelineTable:
    def test_rejects_rules_outside_declared_fields(self):
        table = PipelineTable(0, "l2", ("eth_dst",))
        with pytest.raises(ValueError, match="outside table"):
            table.insert(rule({"ip_dst": 1}, next_table=None,
                              actions=[Drop()]))

    def test_miss_goes_to_default(self):
        table = PipelineTable(0, "l2", ("eth_dst",), miss_next_table=3)
        lookup = table.lookup(flow())
        assert lookup.rule is None
        assert lookup.next_table == 3
        assert not lookup.actions

    def test_terminal_miss_punts_to_controller(self):
        table = PipelineTable(0, "l2", ("eth_dst",))
        lookup = table.lookup(flow())
        assert lookup.next_table is None
        assert any(isinstance(a, Controller) for a in lookup.actions)

    def test_len_iter_remove(self):
        table = PipelineTable(0, "acl", ("tp_dst",))
        r = rule({"tp_dst": 443}, actions=[Drop()])
        table.insert(r)
        assert len(table) == 1
        assert list(table) == [r]
        table.remove(r)
        assert len(table) == 0

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            PipelineTable(-1, "x", ("tp_dst",))


class TestPipelineExecution:
    def test_traversal_records_path(self, mini_pipeline, default_flow):
        traversal = mini_pipeline.execute(default_flow)
        assert traversal.table_ids == (0, 1, 2, 3)
        assert traversal.disposition == Disposition.OUTPUT
        assert traversal.final_flow == default_flow  # no rewrites here

    def test_traversal_wildcards_reflect_matches(
        self, mini_pipeline, default_flow
    ):
        traversal = mini_pipeline.execute(default_flow)
        assert traversal.steps[0].wildcard.mask_of("in_port") == 0xFFFF
        assert traversal.steps[2].wildcard.mask_of("ip_dst") == prefix_mask(24)

    def test_miss_ends_in_controller(self, mini_pipeline):
        stranger = flow(in_port=99)
        traversal = mini_pipeline.execute(stranger)
        assert traversal.disposition == Disposition.CONTROLLER
        assert len(traversal) == 1

    def test_set_field_actions_update_flow(self):
        t0 = PipelineTable(0, "rewrite", ("in_port",))
        t1 = PipelineTable(1, "l2", ("eth_dst",))
        pipeline = Pipeline("p", (t0, t1))
        pipeline.install(
            0,
            rule({"in_port": 1},
                 actions=[SetField("eth_dst", 0x99)], next_table=1),
        )
        pipeline.install(1, rule({"eth_dst": 0x99}, actions=[Output(4)]))
        traversal = pipeline.execute(flow())
        assert traversal.disposition == Disposition.OUTPUT
        assert traversal.final_flow.get("eth_dst") == 0x99
        assert traversal.steps[1].flow_before.get("eth_dst") == 0x99

    def test_loop_guard(self):
        t0 = PipelineTable(0, "a", ("in_port",))
        t1 = PipelineTable(1, "b", ("in_port",))
        pipeline = Pipeline("loop", (t0, t1), max_depth=8)
        pipeline.install(0, rule({"in_port": 1}, next_table=1))
        pipeline.install(1, rule({"in_port": 1}, next_table=0))
        with pytest.raises(PipelineLoopError, match="pipeline 'loop'"):
            pipeline.execute(flow())
        # The generator's probe fails the same way, naming the pipeline.
        with pytest.raises(PipelineLoopError, match="pipeline 'loop'"):
            pipeline.disposition_of(flow())

    def test_replay_partial(self, mini_pipeline, default_flow):
        replay = mini_pipeline.replay(default_flow, table_id=1, length=2)
        assert replay.table_ids == (1, 2)

    def test_replay_full_matches_execute(self, mini_pipeline, default_flow):
        full = mini_pipeline.execute(default_flow)
        replay = mini_pipeline.replay(default_flow, 0, len(full))
        assert [(s.table_id, s.rule_id) for s in replay.steps] == [
            (s.table_id, s.rule_id) for s in full.steps
        ]

    def test_generation_bumps_on_install_remove(self, mini_pipeline):
        g0 = mini_pipeline.generation
        r = rule({"tp_dst": 80, "ip_proto": 6}, actions=[Drop()])
        mini_pipeline.install(3, r)
        assert mini_pipeline.generation == g0 + 1
        mini_pipeline.remove(3, r)
        assert mini_pipeline.generation == g0 + 2

    def test_install_bad_next_table_rejected(self, mini_pipeline):
        with pytest.raises(ValueError, match="unknown table"):
            mini_pipeline.install(0, rule({"in_port": 2}, next_table=42))

    def test_stats_recorded(self, mini_pipeline, default_flow):
        mini_pipeline.execute(default_flow)
        mini_pipeline.execute(default_flow)
        assert mini_pipeline.stats.executions == 2
        assert mini_pipeline.stats.lookups == 8

    def test_duplicate_table_ids_rejected(self):
        t0 = PipelineTable(0, "a", ("in_port",))
        t0b = PipelineTable(0, "b", ("in_port",))
        with pytest.raises(ValueError, match="duplicate"):
            Pipeline("dup", (t0, t0b))

    def test_a_pipeline_without_table_0_raises(self):
        t5 = PipelineTable(5, "a", ("in_port",))
        with pytest.raises(ValueError, match="no entry table 0"):
            Pipeline("p", (t5,))


class TestPriorityDependencies:
    def test_dependency_bits_preserve_highest_priority_semantics(self):
        """A cached-looking perturbation of the flow that stays inside the
        traversal wildcard must match the same rules."""
        table = PipelineTable(0, "l3", ("ip_dst",))
        pipeline = Pipeline("p", (table,))
        pipeline.install(0, rule(
            {"ip_dst": ip("192.168.14.15")},
            masks={"ip_dst": prefix_mask(32)}, priority=400,
            actions=[Output(1)]))
        pipeline.install(0, rule(
            {"ip_dst": ip("192.168.14.0")},
            masks={"ip_dst": prefix_mask(24)}, priority=300,
            actions=[Output(2)]))
        pipeline.install(0, rule(
            {"ip_dst": ip("192.168.0.0")},
            masks={"ip_dst": prefix_mask(16)}, priority=200,
            actions=[Output(3)]))
        pipeline.install(0, rule(
            {"ip_dst": ip("192.0.0.0")},
            masks={"ip_dst": prefix_mask(8)}, priority=100,
            actions=[Output(4)]))
        traversal = pipeline.execute(flow(ip_dst=ip("192.168.21.27")))
        wc = traversal.steps[0].wildcard
        assert wc.mask_of("ip_dst") == ip("255.255.240.0")
        # Flows equal on those bits behave identically.
        other = pipeline.execute(flow(ip_dst=ip("192.168.21.99")))
        assert other.steps[0].rule_id == traversal.steps[0].rule_id
