"""Tests for sub-traversal partitioning (§4.2.2, Fig. 7)."""

import itertools

import pytest

from repro.core import (
    RandomPartitioner,
    disjoint_boundaries,
    disjoint_partition,
    megaflow_partition,
    one_to_one_partition,
    partition_score,
    segment_score,
)
from repro.flow import Output
from repro.pipeline import Pipeline, PipelineTable
from conftest import flow, rule


def build_grouped_pipeline(groups):
    """A linear pipeline whose stages form the given disjoint field groups.

    ``groups`` is a list of lists of field names, e.g.
    ``[["eth_src", "eth_dst"], ["ip_dst"], ["tp_dst"]]`` — consecutive
    stages inside a group share a field; group boundaries are disjoint.
    """
    tables = []
    tid = 0
    for fields_list in groups:
        for name in fields_list:
            tables.append(PipelineTable(tid, f"t{tid}", (name,)))
            tid += 1
    pipeline = Pipeline("grouped", tables)
    probe = flow()
    for i, table in enumerate(tables):
        field = table.match_fields[0]
        is_last = i == len(tables) - 1
        pipeline.install(
            i,
            rule(
                {field: probe.get(field)},
                actions=[Output(1)] if is_last else (),
                next_table=None if is_last else i + 1,
            ),
        )
    return pipeline, probe


def grouped_traversal(groups):
    pipeline, probe = build_grouped_pipeline(groups)
    return pipeline.execute(probe)


class TestScoring:
    def test_boundaries_detected(self, mini_pipeline, default_flow):
        traversal = mini_pipeline.execute(default_flow)
        # port | l2 | l3 ~ acl (share nothing/nothing/ip? -> check)
        bounds = disjoint_boundaries(traversal)
        assert bounds[0] is True  # in_port vs eth_dst
        assert bounds[1] is True  # eth_dst vs ip_dst

    def test_segment_score_zero_across_boundary(self):
        traversal = grouped_traversal([["eth_src", "eth_src"], ["ip_dst"]])
        assert segment_score(traversal, 0, 2) == 2  # within group
        assert segment_score(traversal, 0, 3) == 0  # crosses boundary
        assert segment_score(traversal, 2, 3) == 1  # singleton

    def test_partition_score_sums_segments(self):
        traversal = grouped_traversal([["eth_src", "eth_src"], ["ip_dst"]])
        partition = traversal.partitions_of([2])
        assert partition_score(traversal, partition) == 3


class TestDisjointPartition:
    def test_figure7_structure(self):
        """Fig. 7's example: groups of sizes 3/2/1 with K=3 partition at
        the disjoint boundaries with score 6."""
        traversal = grouped_traversal(
            [["eth_src", "eth_src", "eth_src"], ["tp_dst", "tp_dst"],
             ["tp_src"]]
        )
        partition = disjoint_partition(traversal, 3)
        assert [len(p) for p in partition] == [3, 2, 1]
        assert partition_score(traversal, partition) == 6

    def test_prefers_fewer_segments_on_tie(self):
        # A fully cohesive traversal should stay in one segment even when
        # K allows more.
        traversal = grouped_traversal([["eth_src", "eth_src", "eth_src"]])
        partition = disjoint_partition(traversal, 3)
        assert len(partition) == 1

    def test_respects_max_parts(self):
        traversal = grouped_traversal(
            [["eth_src"], ["ip_dst"], ["tp_dst"], ["vlan_id"]]
        )
        partition = disjoint_partition(traversal, 2)
        assert len(partition) <= 2

    def test_max_parts_one_is_megaflow(self):
        traversal = grouped_traversal([["eth_src"], ["ip_dst"]])
        partition = disjoint_partition(traversal, 1)
        assert len(partition) == 1
        assert partition[0].length == len(traversal)

    def test_invalid_max_parts(self):
        traversal = grouped_traversal([["eth_src"]])
        with pytest.raises(ValueError):
            disjoint_partition(traversal, 0)

    def test_optimal_against_brute_force(self):
        """DP must achieve the maximum Fig. 7 score over all partitions."""
        shapes = [
            [["eth_src", "eth_src"], ["ip_dst", "ip_dst", "ip_dst"],
             ["tp_dst"]],
            [["eth_src"], ["ip_dst"], ["tp_dst"], ["vlan_id"],
             ["tp_src"]],
            [["eth_src", "eth_src", "eth_src", "eth_src"]],
        ]
        for shape in shapes:
            traversal = grouped_traversal(shape)
            n = len(traversal)
            for k in (1, 2, 3, 4):
                got = partition_score(
                    traversal, disjoint_partition(traversal, k)
                )
                best = 0
                for m in range(1, min(k, n) + 1):
                    for cuts in itertools.combinations(range(1, n), m - 1):
                        p = traversal.partitions_of(list(cuts))
                        best = max(best, partition_score(traversal, p))
                assert got == best, (shape, k)


class TestBaselines:
    def test_megaflow_partition(self, mini_pipeline, default_flow):
        traversal = mini_pipeline.execute(default_flow)
        (segment,) = megaflow_partition(traversal)
        assert segment.length == len(traversal)

    def test_one_to_one(self, mini_pipeline, default_flow):
        traversal = mini_pipeline.execute(default_flow)
        partition = one_to_one_partition(traversal)
        assert len(partition) == len(traversal)
        assert all(s.length == 1 for s in partition)

    def test_random_partition_covers_and_bounds(self, mini_pipeline,
                                                default_flow):
        traversal = mini_pipeline.execute(default_flow)
        rnd = RandomPartitioner(seed=1)
        for _ in range(20):
            partition = rnd(traversal, 3)
            assert 1 <= len(partition) <= 3
            assert sum(s.length for s in partition) == len(traversal)

    def test_random_partition_deterministic_by_seed(
        self, mini_pipeline, default_flow
    ):
        traversal = mini_pipeline.execute(default_flow)
        a = [len(RandomPartitioner(seed=5)(traversal, 3)) for _ in range(5)]
        b = [len(RandomPartitioner(seed=5)(traversal, 3)) for _ in range(5)]
        assert a == b

