"""Tests for cache invariant checking and chain reporting."""

import pytest

from repro.core import (
    CacheInvariantError,
    GigaflowCache,
    TAG_DONE,
    chain_report,
    validate_cache,
)
from test_ltm import ltm_rule


class TestValidateCache:
    def test_valid_cache_passes(self, mini_pipeline, default_flow):
        cache = GigaflowCache(num_tables=4, table_capacity=8)
        cache.install_traversal(mini_pipeline.execute(default_flow))
        validate_cache(cache)  # no exception

    def test_detects_corrupted_priority(self, mini_pipeline,
                                        default_flow):
        cache = GigaflowCache(num_tables=4, table_capacity=8)
        cache.install_traversal(mini_pipeline.execute(default_flow))
        victim = next(iter(cache))
        victim.priority = victim.length + 5
        with pytest.raises(CacheInvariantError, match="priority"):
            validate_cache(cache)

    def test_detects_bad_tag(self, mini_pipeline, default_flow):
        cache = GigaflowCache(num_tables=4, table_capacity=8)
        cache.install_traversal(mini_pipeline.execute(default_flow))
        victim = next(iter(cache))
        victim.next_tag = -7
        with pytest.raises(CacheInvariantError, match="tag"):
            validate_cache(cache)

    def test_empty_cache_valid(self):
        validate_cache(GigaflowCache(num_tables=2, table_capacity=4))


class TestChainReport:
    def test_complete_chain_is_productive(self):
        cache = GigaflowCache(num_tables=3, table_capacity=8)
        cache.tables[0].insert(ltm_rule({"tp_dst": 1}, tag=0, next_tag=5))
        cache.tables[1].insert(
            ltm_rule({"tp_dst": 2}, tag=5, next_tag=TAG_DONE))
        report = chain_report(cache)
        assert report.total_rules == 2
        assert report.reachable == 2
        assert report.productive == 2

    def test_dead_end_rule_is_unproductive(self):
        cache = GigaflowCache(num_tables=3, table_capacity=8)
        cache.tables[0].insert(ltm_rule({"tp_dst": 1}, tag=0, next_tag=5))
        # Nothing continues tag 5 -> the rule is reachable but orphaned.
        report = chain_report(cache)
        assert report.reachable == 1
        assert report.productive == 0
        assert report.total_rules == 1

    def test_unreachable_tag_is_orphaned(self):
        cache = GigaflowCache(num_tables=3, table_capacity=8)
        cache.tables[1].insert(
            ltm_rule({"tp_dst": 1}, tag=99, next_tag=TAG_DONE))
        report = chain_report(cache)
        assert report.reachable == 0
        assert report.productive == 0

    def test_wrong_order_continuation_is_unproductive(self):
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        # Continuation sits in an earlier table than its predecessor.
        cache.tables[1].insert(ltm_rule({"tp_dst": 1}, tag=0, next_tag=5))
        cache.tables[0].insert(
            ltm_rule({"tp_dst": 2}, tag=5, next_tag=TAG_DONE))
        report = chain_report(cache)
        assert report.productive == 0

    def test_empty_cache(self):
        report = chain_report(GigaflowCache(num_tables=2,
                                            table_capacity=4))
        assert report.total_rules == 0
        assert report.productive == 0

    def test_real_workload_mostly_productive(self, mini_pipeline,
                                             default_flow):
        cache = GigaflowCache(num_tables=4, table_capacity=16)
        cache.install_traversal(mini_pipeline.execute(default_flow))
        report = chain_report(cache)
        assert report.total_rules > 0
        assert report.productive == report.total_rules
