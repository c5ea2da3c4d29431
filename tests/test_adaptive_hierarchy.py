"""Tests for the cache hierarchy and the §7 adaptive Gigaflow extension."""

import pytest

from repro.cache import CacheHierarchy
from repro.core import AdaptiveGigaflowCache, adaptive
from repro.flow import Output
from conftest import flow, rule


class TestCacheHierarchy:
    @pytest.fixture
    def hierarchy(self, mini_pipeline, default_flow):
        cache = CacheHierarchy(microflow_capacity=16, megaflow_capacity=16)
        traversal = mini_pipeline.execute(default_flow)
        cache.install_traversal(traversal)
        return cache

    def test_exact_hit_served_by_microflow(self, hierarchy, default_flow):
        result = hierarchy.lookup(default_flow)
        assert result.hit
        assert hierarchy.microflow.stats.hits == 1
        assert hierarchy.megaflow.stats.lookups == 0

    def test_wildcard_hit_promotes_to_microflow(self, hierarchy):
        sibling = flow(tp_src=1)  # same megaflow class, new exact flow
        first = hierarchy.lookup(sibling)
        assert first.hit
        assert hierarchy.megaflow.stats.hits == 1
        # The promotion means the next lookup is exact-match.
        hierarchy.lookup(sibling)
        assert hierarchy.microflow.stats.hits >= 1
        assert hierarchy.megaflow.stats.hits == 1

    def test_miss_falls_through(self, hierarchy):
        result = hierarchy.lookup(flow(in_port=42))
        assert not result.hit
        assert hierarchy.stats.misses == 1

    def test_capacity_and_counts(self, hierarchy):
        assert hierarchy.capacity_total() == 32
        assert hierarchy.entry_count() == 2  # one per level

    def test_evict_idle_and_clear(self, hierarchy):
        assert hierarchy.evict_idle(now=1000.0, max_idle=1.0) == 2
        hierarchy.clear()
        assert hierarchy.entry_count() == 0

    def test_microflow_hit_fraction(self, hierarchy, default_flow):
        """The exact-match level serves a share of the hierarchy's hits."""
        hierarchy.lookup(default_flow)
        hierarchy.lookup(flow(tp_src=1))
        assert 0 <= hierarchy.microflow.stats.hits <= hierarchy.stats.hits


class TestAdaptiveGigaflow:
    def _shared_pipeline(self, mini_pipeline):
        """Add services so flows share their L2 prefix segments."""
        from repro.flow import ip, prefix_mask

        for port_no in range(100):
            mini_pipeline.install(
                3,
                rule({"ip_proto": 6, "tp_dst": 8000 + port_no},
                     actions=[Output(port_no)]),
            )
        return mini_pipeline

    def test_stays_in_dp_mode_with_sharing(self, mini_pipeline, monkeypatch):
        monkeypatch.setattr(adaptive, "WINDOW", 40)
        pipeline = self._shared_pipeline(mini_pipeline)
        cache = AdaptiveGigaflowCache(num_tables=4, table_capacity=10**6)
        for port_no in range(100):
            traversal = pipeline.execute(flow(tp_dst=8000 + port_no))
            cache.install_traversal(traversal)
        # Flows share the port/l2/l3 segments heavily -> DP mode persists.
        assert not cache.governor.megaflow_mode
        assert cache.governor.mode_switches == 0

    def test_falls_back_without_sharing(self, mini_pipeline, monkeypatch):
        """Flows with nothing in common push the cache into Megaflow mode."""
        from repro.flow import ip, prefix_mask

        monkeypatch.setattr(adaptive, "WINDOW", 30)
        pipeline = mini_pipeline
        cache = AdaptiveGigaflowCache(num_tables=4, table_capacity=10**6)
        for i in range(2, 80):
            # Each flow gets its own port, MAC, prefix and service.
            pipeline.install(0, rule({"in_port": i}, next_table=1))
            pipeline.install(
                1, rule({"eth_dst": 0xCC000000 + i}, next_table=2))
            pipeline.install(
                2, rule({"ip_dst": ip("10.0.0.0") + (i << 8)},
                        masks={"ip_dst": prefix_mask(24)}, next_table=3))
            pipeline.install(
                3, rule({"ip_proto": 6, "tp_dst": 20000 + i},
                        actions=[Output(i)]))
            probe = flow(in_port=i, eth_dst=0xCC000000 + i,
                         ip_dst=ip("10.0.0.1") + (i << 8),
                         tp_dst=20000 + i)
            cache.install_traversal(pipeline.execute(probe))
        assert cache.governor.megaflow_mode
        assert cache.governor.mode_switches >= 1

    def test_megaflow_mode_installs_single_segments(self, mini_pipeline):
        cache = AdaptiveGigaflowCache(num_tables=4, table_capacity=10**6)
        cache.governor.megaflow_mode = True
        traversal = mini_pipeline.execute(flow())
        outcome = cache.install_traversal(traversal)
        assert outcome.installed == 1  # one megaflow-style rule
        result = cache.lookup(flow())
        assert result.hit
        assert result.tables_hit == 1
