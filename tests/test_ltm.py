"""Tests for LTM rules and tables (§4.1)."""

import pytest

from repro.core import TAG_DONE, GigaflowCache, LtmRule, LtmTable
from repro.flow import ActionList, Output, TernaryMatch, ip, prefix_mask
from conftest import flow


def ltm_rule(values, masks=None, tag=0, priority=1, next_tag=TAG_DONE,
             actions=(Output(1),), now=0.0):
    return LtmRule(
        tag=tag,
        match=TernaryMatch.from_fields(values, masks),
        priority=priority,
        actions=ActionList(actions),
        next_tag=next_tag,
        parent_flow=flow(),
        now=now,
    )


class TestLtmRule:
    def test_identity_is_value_identity(self):
        a = ltm_rule({"tp_dst": 443})
        b = ltm_rule({"tp_dst": 443})
        assert a.identity == b.identity
        assert a.rule_id != b.rule_id

    def test_identity_distinguishes_tags(self):
        a = ltm_rule({"tp_dst": 443}, tag=0)
        b = ltm_rule({"tp_dst": 443}, tag=1)
        assert a.identity != b.identity

    def test_priority_must_be_positive(self):
        with pytest.raises(ValueError):
            ltm_rule({"tp_dst": 443}, priority=0)


class TestLtmTable:
    def test_insert_and_lookup_requires_tag(self):
        table = LtmTable(0, capacity=8)
        rule = ltm_rule({"tp_dst": 443}, tag=3)
        assert table.insert(rule)
        hit, _ = table.lookup(flow(tp_dst=443), tag=3)
        assert hit is rule
        miss, _ = table.lookup(flow(tp_dst=443), tag=5)
        assert miss is None

    def test_ltm_selects_longest_sub_traversal(self):
        """§4.1.1: among matching rules with the same tag, the one spanning
        the most vSwitch tables wins."""
        table = LtmTable(0, capacity=8)
        short = ltm_rule(
            {"ip_dst": ip("10.0.0.0")},
            masks={"ip_dst": prefix_mask(8)}, tag=0, priority=3,
        )
        long = ltm_rule(
            {"ip_dst": ip("10.1.0.0")},
            masks={"ip_dst": prefix_mask(16)}, tag=0, priority=4,
        )
        table.insert(short)
        table.insert(long)
        hit, _ = table.lookup(flow(ip_dst=ip("10.1.2.3")), tag=0)
        assert hit is long
        hit, _ = table.lookup(flow(ip_dst=ip("10.2.2.3")), tag=0)
        assert hit is short

    def test_duplicate_insert_counts_sharing(self):
        table = LtmTable(0, capacity=8)
        a = ltm_rule({"tp_dst": 443})
        b = ltm_rule({"tp_dst": 443})
        table.insert(a)
        table.insert(b)
        assert len(table) == 1
        assert a.install_count == 2

    def test_capacity_enforced(self):
        table = LtmTable(0, capacity=2)
        assert table.insert(ltm_rule({"tp_dst": 1}))
        assert table.insert(ltm_rule({"tp_dst": 2}))
        assert len(table) == table.capacity
        assert not table.insert(ltm_rule({"tp_dst": 3}))

    def test_remove(self):
        table = LtmTable(0, capacity=4)
        rule = ltm_rule({"tp_dst": 443})
        table.insert(rule)
        table.remove(rule)
        assert len(table) == 0
        assert table.lookup(flow(tp_dst=443), 0)[0] is None
        with pytest.raises(KeyError):
            table.remove(rule)

    def test_find_identical(self):
        table = LtmTable(0, capacity=4)
        rule = ltm_rule({"tp_dst": 443})
        table.insert(rule)
        assert table.find_identical(ltm_rule({"tp_dst": 443}).identity) is rule
        assert table.find_identical(ltm_rule({"tp_dst": 80}).identity) is None

    def test_lru_rule(self):
        table = LtmTable(0, capacity=4)
        a = ltm_rule({"tp_dst": 1})
        b = ltm_rule({"tp_dst": 2})
        table.insert(a)
        table.insert(b)
        table.touch(b, 1.0)
        table.touch(a, 5.0)
        assert table.lru_rule() is b
        assert a.last_used == 5.0
        assert b.last_used == 1.0

    def test_a_touch_at_a_regressed_time_leaves_the_sweep_exact(self):
        """``_by_id`` is touch order, which is ``last_used`` order only
        while time does not regress — and it can (the timestamps of
        ``repro.serve.endless_packets`` regress at segment seams).  The
        idle sweep therefore scans every rule: one that stopped at the
        first recent rule in touch order would keep ``regressed``."""
        cache = GigaflowCache(num_tables=1, table_capacity=8)
        old, recent, regressed = (
            ltm_rule({"tp_dst": port}) for port in (1, 2, 3)
        )
        for rule in (old, recent, regressed):
            cache.install_rules([rule])
        (table,) = cache.tables
        table.touch(recent, 10.0)
        table.touch(regressed, 3.0)  # touched last, at an earlier time
        assert list(table._by_id.values()) == [old, recent, regressed]
        # Idle at 12.0: old 12 s, recent 2 s, regressed 9 s.
        assert cache.evict_idle(12.0, max_idle=5.0) == 2
        assert list(cache) == [recent]

    def test_tag_histogram(self):
        """Rules are bucketed per tag."""
        table = LtmTable(0, capacity=8)
        table.insert(ltm_rule({"tp_dst": 1}, tag=0))
        table.insert(ltm_rule({"tp_dst": 2}, tag=0))
        table.insert(ltm_rule({"tp_dst": 3}, tag=4))
        assert [t for t in range(8) if table.rules_with_tag(t)] == [0, 4]
        assert len(table.rules_with_tag(0)) == 2
        assert len(table.rules_with_tag(4)) == 1


class TestTagDependency:
    """The per-tag change counter fast-path records are validated
    against."""

    def test_changes_count_every_insert_and_remove(self):
        table = LtmTable(0, capacity=8)
        dependency = table.dependencies[0]
        assert dependency.changes == 0
        first = ltm_rule({"tp_dst": 443}, priority=5)
        table.insert(first)
        table.insert(ltm_rule({"tp_dst": 80}, priority=5))
        table.insert(ltm_rule({"tp_dst": 22}, tag=1))  # another tag's
        table.remove(first)
        assert dependency.changes == 3
        assert table.dependencies[1].changes == 1

    def test_sharing_an_identical_rule_is_not_a_change(self):
        table = LtmTable(0, capacity=8)
        dependency = table.dependencies[0]
        table.insert(ltm_rule({"tp_dst": 443}))
        assert table.insert(ltm_rule({"tp_dst": 443}))
        assert len(table) == 1 and dependency.changes == 1

    def test_state_is_the_tags_not_the_buckets(self):
        table = LtmTable(0, capacity=8)
        dependency = table.dependencies[3]
        rule = ltm_rule({"tp_dst": 443}, tag=3)
        table.insert(rule)
        table.remove(rule)
        assert not table.rules_with_tag(3)
        assert table.dependencies[3] is dependency
        assert dependency.changes == 2
        assert table.dependencies[4] is not dependency
