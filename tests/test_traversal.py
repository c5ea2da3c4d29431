"""Tests for traversal and sub-traversal views."""

import pytest

from repro.flow import Output, SetField
from conftest import flow


@pytest.fixture
def traversal(mini_pipeline, default_flow):
    return mini_pipeline.execute(default_flow)


class TestTraversal:
    def test_len_and_tables(self, traversal):
        assert len(traversal) == 4
        assert traversal.table_ids == (0, 1, 2, 3)

    def test_signature_is_stable(self, mini_pipeline, default_flow):
        a = mini_pipeline.execute(default_flow)
        b = mini_pipeline.execute(default_flow)
        assert [(s.table_id, s.rule_id) for s in a.steps] == [
            (s.table_id, s.rule_id) for s in b.steps
        ]

    def test_megaflow_wildcard_unions_steps(self, traversal):
        wc = traversal.megaflow_wildcard()
        assert set(wc.fields_matched()) == {
            "in_port", "eth_dst", "ip_dst", "ip_proto", "tp_dst",
        }

    def test_partitions_of(self, traversal):
        parts = traversal.partitions_of([2])
        assert len(parts) == 2
        assert [s.table_id for s in parts[0].steps] == [0, 1]
        assert [s.table_id for s in parts[1].steps] == [2, 3]

    def test_partitions_of_bad_boundaries(self, traversal):
        with pytest.raises(ValueError):
            traversal.partitions_of([0])
        with pytest.raises(ValueError):
            traversal.partitions_of([2, 2])


class TestSubTraversal:
    def test_bounds_checked(self, traversal):
        with pytest.raises(ValueError):
            traversal.sub(2, 2)
        with pytest.raises(ValueError):
            traversal.sub(0, 99)

    def test_tags(self, traversal):
        sub = traversal.sub(1, 3)  # tables 1,2
        assert sub.start_table == 1
        assert sub.next_table == 3
        assert not sub.is_terminal
        assert sub.length == 2

    def test_terminal_sub(self, traversal):
        sub = traversal.sub(3, 4)
        assert sub.is_terminal
        assert sub.next_table is None

    def test_effective_wildcard_scoped_to_slice(self, traversal):
        sub = traversal.sub(0, 2)  # port + l2 tables
        assert set(sub.effective_wildcard().fields_matched()) == {
            "in_port", "eth_dst",
        }

    def test_disjointness_between_slices(self, traversal):
        l2 = traversal.sub(0, 2)
        l3 = traversal.sub(2, 4)
        assert not l2.field_set() & l3.field_set()


class TestModifiedFieldScoping:
    def test_rewritten_field_does_not_leak_into_wildcard(self):
        """A field set by an action and matched later must not propagate
        into the cache wildcard — later reads see the action's value, not
        the packet's."""
        from repro.pipeline import Pipeline, PipelineTable
        from conftest import rule

        t0 = PipelineTable(0, "rewrite", ("in_port",))
        t1 = PipelineTable(1, "l2", ("eth_dst",))
        pipeline = Pipeline("p", (t0, t1))
        pipeline.install(
            0, rule({"in_port": 1},
                    actions=[SetField("eth_dst", 0x42)], next_table=1)
        )
        pipeline.install(1, rule({"eth_dst": 0x42}, actions=[Output(1)]))
        traversal = pipeline.execute(flow())
        wc = traversal.megaflow_wildcard()
        assert wc.mask_of("eth_dst") == 0
        assert wc.mask_of("in_port") == 0xFFFF
        # Consequence: a flow with any eth_dst matches the same entry.
        sub = traversal.sub(0, 2)
        assert "eth_dst" not in sub.field_set()
