"""Tests for sub-traversal → LTM rule generation (§4.2.3)."""

from repro.core import TAG_DONE, build_ltm_rule, build_ltm_rules
from repro.core.partition import disjoint_partition
from repro.pipeline import ENTRY_TABLE


class TestBuildLtmRule:
    def test_non_terminal_rule(self, mini_pipeline, default_flow):
        traversal = mini_pipeline.execute(default_flow)
        sub = traversal.sub(0, 2)  # port + l2
        rule = build_ltm_rule(sub)
        assert rule.tag == 0
        assert rule.next_tag == 2
        assert rule.priority == 2
        assert not rule.actions.is_terminal()
        assert rule.match.matches(default_flow)

    def test_terminal_rule_carries_output(self, mini_pipeline, default_flow):
        traversal = mini_pipeline.execute(default_flow)
        sub = traversal.sub(2, 4)  # l3 + acl (terminal)
        rule = build_ltm_rule(sub)
        assert rule.tag == 2
        assert rule.next_tag == TAG_DONE
        assert rule.actions.output_port() == 9

    def test_match_uses_effective_wildcard(self, mini_pipeline, default_flow):
        traversal = mini_pipeline.execute(default_flow)
        rule = build_ltm_rule(traversal.sub(0, 2))
        matched = set(rule.match.wildcard.fields_matched())
        assert matched == {"in_port", "eth_dst"}

    def test_rules_from_partition_chain_tags(self, mini_pipeline,
                                             default_flow):
        traversal = mini_pipeline.execute(default_flow)
        partition = disjoint_partition(traversal, 4)
        rules = build_ltm_rules(partition)
        assert rules[0].tag == ENTRY_TABLE
        for prev, nxt in zip(rules, rules[1:]):
            assert prev.next_tag == nxt.tag
        assert rules[-1].next_tag == TAG_DONE

    def test_priorities_equal_lengths(self, mini_pipeline, default_flow):
        traversal = mini_pipeline.execute(default_flow)
        partition = disjoint_partition(traversal, 2)
        rules = build_ltm_rules(partition)
        assert [r.priority for r in rules] == [len(s) for s in partition]

    def test_generation_and_time_propagate(self, mini_pipeline,
                                           default_flow):
        traversal = mini_pipeline.execute(default_flow)
        rule = build_ltm_rule(traversal.sub(0, 1), generation=7, now=3.5)
        assert rule.generation == 7
        assert rule.last_used == 3.5
