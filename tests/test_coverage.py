"""Tests for rule-space coverage counting (Table 2's metric)."""

from repro.core import GigaflowCache, TAG_DONE, coverage
from repro.core.ltm import LtmRule
from repro.flow import ActionList, Output, TernaryMatch
from conftest import flow


def ltm(tag, next_tag, port_value):
    """A distinct LTM rule keyed by tp_src so identities differ."""
    return LtmRule(
        tag=tag,
        match=TernaryMatch.from_fields({"tp_src": port_value}),
        priority=1,
        actions=ActionList([Output(1)] if next_tag == TAG_DONE else []),
        next_tag=next_tag,
        parent_flow=flow(),
    )


class TestCoverage:
    def test_empty_cache_covers_nothing(self):
        cache = GigaflowCache(num_tables=3, table_capacity=8)
        assert coverage(cache) == 0

    def test_single_terminal_chain(self):
        cache = GigaflowCache(num_tables=3, table_capacity=8)
        cache.tables[0].insert(ltm(0, TAG_DONE, 1))
        assert coverage(cache) == 1

    def test_cross_product_counts(self):
        """3 first-segments × 2 second-segments = 6 chains."""
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        for i in range(3):
            cache.tables[0].insert(ltm(0, 5, i))
        for i in range(2):
            cache.tables[1].insert(ltm(5, TAG_DONE, 100 + i))
        assert coverage(cache) == 6

    def test_skipping_tables_allowed(self):
        """A chain may skip intermediate tables (tag pass-through)."""
        cache = GigaflowCache(num_tables=3, table_capacity=8)
        cache.tables[0].insert(ltm(0, 5, 1))
        cache.tables[2].insert(ltm(5, TAG_DONE, 2))  # table 1 skipped
        assert coverage(cache) == 1

    def test_order_constraint_enforced(self):
        """Chains cannot run backwards through tables."""
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        cache.tables[1].insert(ltm(0, 5, 1))      # first segment in GF2
        cache.tables[0].insert(ltm(5, TAG_DONE, 2))  # continuation in GF1
        assert coverage(cache) == 0

    def test_incomplete_chain_not_counted(self):
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        cache.tables[0].insert(ltm(0, 5, 1))  # next tag 5 never satisfied
        assert coverage(cache) == 0

    def test_multi_hop_cross_products_multiply(self):
        """2 × 2 × 2 segments across three tables = 8 chains."""
        cache = GigaflowCache(num_tables=3, table_capacity=8)
        for i in range(2):
            cache.tables[0].insert(ltm(0, 3, i))
            cache.tables[1].insert(ltm(3, 6, 10 + i))
            cache.tables[2].insert(ltm(6, TAG_DONE, 20 + i))
        assert coverage(cache) == 8

    def test_direct_terminal_in_any_table_counts(self):
        cache = GigaflowCache(num_tables=3, table_capacity=8)
        cache.tables[2].insert(ltm(0, TAG_DONE, 1))
        assert coverage(cache) == 1


class TestHelpers:
    def test_coverage_exceeds_entries_with_sharing(
        self, mini_pipeline
    ):
        """The Table 2 effect in miniature: coverage > entries."""
        from conftest import rule

        # Add a second L2 rule and a second service.
        mini_pipeline.install(
            1, rule({"eth_dst": 0xCC0000000001}, next_table=2))
        mini_pipeline.install(
            3, rule({"ip_proto": 17, "tp_dst": 53}, actions=[Output(2)]))
        cache = GigaflowCache(num_tables=4, table_capacity=32)
        flows = [
            flow(),
            flow(eth_dst=0xCC0000000001),
            flow(ip_proto=17, tp_dst=53),
        ]
        for f in flows:
            cache.install_traversal(mini_pipeline.execute(f))
        assert coverage(cache) > len(flows)
