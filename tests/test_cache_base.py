"""Tests for cache base helpers and small LTM-table accessors."""

from repro.cache import MegaflowCache, MegaflowEntry, MicroflowCache
from repro.cache.base import CacheResult
from repro.core.ltm import LtmTable
from repro.flow import ActionList, Drop, Output, TernaryMatch
from conftest import flow
from test_ltm import ltm_rule


def _hits(actions):
    """A Megaflow hit (one mask group ahead of the entry's) and a
    Microflow hit on an entry holding ``actions``."""
    packet = flow(tp_dst=443)
    megaflow = MegaflowCache(capacity=4)
    for values in ({"tp_src": 9}, {"tp_dst": 443}):
        megaflow.install(
            MegaflowEntry(
                TernaryMatch.from_fields(values), actions, packet, 1
            )
        )
    microflow = MicroflowCache(capacity=4)
    microflow.install(packet, actions)
    return megaflow.lookup(packet), microflow.lookup(packet)


class TestCacheResult:
    def test_a_hit_result_carries_its_entrys_port(self):
        actions = ActionList([Output(4)])
        megaflow, microflow = _hits(actions)
        assert megaflow == CacheResult(True, actions, 4, 2, 1)
        assert microflow == CacheResult(True, actions, 4, 1, 1)

    def test_a_drop_hit_result_has_no_port(self):
        for result in _hits(ActionList([Drop()])):
            assert result.hit and result.output_port is None

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
