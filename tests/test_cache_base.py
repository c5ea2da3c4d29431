"""Tests for cache base helpers and small LTM-table accessors."""

from repro.cache.base import CacheResult, actions_result
from repro.core.ltm import LtmTable
from repro.flow import ActionList, Drop, Output
from test_ltm import ltm_rule


class TestCacheResult:
    def test_actions_result_extracts_port(self):
        result = actions_result(
            ActionList([Output(4)]), groups_probed=2, tables_hit=1
        )
        assert result.hit
        assert result.output_port == 4
        assert result.groups_probed == 2

    def test_drop_result_has_no_port(self):
        result = actions_result(ActionList([Drop()]), 1, 1)
        assert result.output_port is None

    def test_miss_defaults(self):
        miss = CacheResult(hit=False)
        assert miss.actions is None
        assert miss.tables_hit == 0


class TestLtmTableGroups:
    def test_mean_group_count_empty(self):
        assert LtmTable(0, capacity=4).mean_group_count() == 0.0

    def test_mean_group_count_counts_masks_per_tag(self):
        table = LtmTable(0, capacity=16)
        # Two distinct masks under tag 0, one under tag 1.
        table.insert(ltm_rule({"tp_dst": 1}, tag=0))
        table.insert(ltm_rule({"ip_proto": 6}, tag=0))
        table.insert(ltm_rule({"tp_dst": 2}, tag=1))
        assert table.mean_group_count() == (2 + 1) / 2
