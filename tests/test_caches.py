"""Tests for the Microflow and Megaflow baseline caches."""

import pytest

from repro.cache import (
    CacheStats,
    MegaflowCache,
    MicroflowCache,
    build_megaflow_entry,
)
from repro.flow import ActionList, Output, ip, prefix_mask
from conftest import flow, rule


class TestCacheStats:
    def test_rates(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75

    def test_rates_idle(self):
        assert CacheStats().hit_rate == 0.0

    def test_snapshot_is_copy(self):
        stats = CacheStats(hits=1)
        snap = stats.snapshot()
        stats.hits = 99
        assert snap.hits == 1


class TestMicroflow:
    def test_exact_match_only(self, default_flow):
        cache = MicroflowCache(capacity=4)
        cache.install(default_flow, ActionList([Output(1)]))
        assert cache.lookup(default_flow).hit
        assert not cache.lookup(flow(tp_src=1)).hit

    def test_lru_eviction(self):
        cache = MicroflowCache(capacity=2)
        flows = [flow(tp_src=i) for i in range(3)]
        for i, f in enumerate(flows):
            cache.install(f, ActionList([Output(i)]), now=float(i))
        assert not cache.lookup(flows[0]).hit  # evicted
        assert cache.lookup(flows[1], now=4.0).hit
        assert cache.lookup(flows[2], now=4.0).hit
        assert cache.stats.evictions == 1

    def test_lookup_refreshes_lru(self):
        cache = MicroflowCache(capacity=2)
        a, b, c = (flow(tp_src=i) for i in range(3))
        cache.install(a, ActionList([Output(1)]), now=0.0)
        cache.install(b, ActionList([Output(2)]), now=1.0)
        cache.lookup(a, now=2.0)  # a is now most recent
        cache.install(c, ActionList([Output(3)]), now=3.0)
        assert cache.lookup(a).hit
        assert not cache.lookup(b).hit

    def test_evict_idle(self, default_flow):
        cache = MicroflowCache(capacity=4)
        cache.install(default_flow, ActionList([Output(1)]), now=0.0)
        assert cache.evict_idle(now=100.0, max_idle=5.0) == 1
        assert cache.entry_count() == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            MicroflowCache(capacity=0)


class TestMegaflowEntryBuild:
    def test_entry_matches_whole_class(self, mini_pipeline, default_flow):
        traversal = mini_pipeline.execute(default_flow)
        entry = build_megaflow_entry(traversal)
        assert entry.match.matches(default_flow)
        # Unmatched fields are free: different tp_src still matches.
        assert entry.match.matches(flow(tp_src=1))
        # Matched fields pin the class: different tp_dst does not.
        assert not entry.match.matches(flow(tp_dst=80))
        assert entry.length == 4
        assert entry.actions.output_port() == 9


class TestMegaflowCache:
    def test_install_and_wildcard_hit(self, mini_pipeline, default_flow):
        cache = MegaflowCache(capacity=8)
        traversal = mini_pipeline.execute(default_flow)
        cache.install_traversal(traversal)
        assert cache.lookup(flow(tp_src=777)).hit  # same class
        assert not cache.lookup(flow(in_port=9)).hit

    def test_duplicate_install_refreshes(self, mini_pipeline, default_flow):
        cache = MegaflowCache(capacity=8)
        traversal = mini_pipeline.execute(default_flow)
        cache.install_traversal(traversal, now=0.0)
        cache.install_traversal(traversal, now=5.0)
        assert cache.entry_count() == 1
        assert cache.stats.insertions == 1

    def test_lru_eviction_when_full(self, mini_pipeline):
        cache = MegaflowCache(capacity=2)
        for port in (2, 3, 4):
            mini_pipeline.install(0, rule({"in_port": port}, next_table=1))
            traversal = mini_pipeline.execute(flow(in_port=port))
            cache.install_traversal(traversal, now=float(port))
        assert cache.entry_count() == 2
        assert cache.stats.evictions == 1
        assert not cache.lookup(flow(in_port=2)).hit

    def test_evict_idle(self, mini_pipeline, default_flow):
        cache = MegaflowCache(capacity=8)
        cache.install_traversal(mini_pipeline.execute(default_flow), now=0.0)
        assert cache.evict_idle(now=50.0, max_idle=10.0) == 1
        assert cache.entry_count() == 0

    def test_entries_never_overlap(self, mini_pipeline):
        """Dependency masking guarantees at most one entry matches any
        packet — megaflow needs no priorities."""

        mini_pipeline.install(
            2,
            rule({"ip_dst": ip("192.168.1.77")},
                 masks={"ip_dst": prefix_mask(32)},
                 priority=99, next_table=3),
        )
        cache = MegaflowCache(capacity=16)
        flows = [
            flow(),  # matches the /24 (not .77)
            flow(ip_dst=ip("192.168.1.77")),  # matches the /32
        ]
        for f in flows:
            cache.install_traversal(mini_pipeline.execute(f))
        assert cache.entry_count() == 2
        entries = list(cache)
        for f in flows:
            matching = [e for e in entries if e.match.matches(f)]
            assert len(matching) == 1

    def test_mask_group_count(self, mini_pipeline, default_flow):
        cache = MegaflowCache(capacity=8)
        cache.install_traversal(mini_pipeline.execute(default_flow))
        assert cache.mask_group_count >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MegaflowCache(capacity=0)
