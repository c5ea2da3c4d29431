"""Tests for the Gigaflow cache: chained lookup, install, sharing."""

import pytest

from repro.core import GigaflowCache
from repro.flow import Output, SetField, ip, prefix_mask
from repro.pipeline import Pipeline, PipelineTable
from conftest import flow, rule


@pytest.fixture
def cache():
    return GigaflowCache(num_tables=4, table_capacity=16)


class TestLookupInstall:
    def test_miss_on_empty(self, cache, default_flow):
        result = cache.lookup(default_flow)
        assert not result.hit
        assert cache.stats.misses == 1

    def test_install_then_hit(self, cache, mini_pipeline, default_flow):
        traversal = mini_pipeline.execute(default_flow)
        outcome = cache.install_traversal(traversal)
        assert outcome.rejected == 0
        assert outcome.installed >= 1
        result = cache.lookup(default_flow)
        assert result.hit
        assert result.output_port == 9
        assert result.tables_hit == outcome.installed + outcome.reused

    def test_hit_applies_rewrites(self):
        t0 = PipelineTable(0, "rewrite", ("in_port",))
        t1 = PipelineTable(1, "l2", ("eth_dst",))
        pipeline = Pipeline("p", (t0, t1))
        pipeline.install(0, rule({"in_port": 1},
                                 actions=[SetField("eth_dst", 0x42)],
                                 next_table=1))
        pipeline.install(1, rule({"eth_dst": 0x42}, actions=[Output(4)]))
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        traversal = pipeline.execute(flow())
        cache.install_traversal(traversal)
        result = cache.lookup(flow())
        assert result.hit
        final = result.actions.apply(flow())
        assert final.get("eth_dst") == 0x42
        assert result.output_port == 4

    def test_reinstall_counts_reuse_not_entries(self, cache, mini_pipeline,
                                                default_flow):
        traversal = mini_pipeline.execute(default_flow)
        first = cache.install_traversal(traversal)
        entries = cache.entry_count()
        second = cache.install_traversal(traversal)
        assert cache.entry_count() == entries
        assert second.installed == 0
        assert second.reused == first.installed

    def test_too_many_rules_for_tables_raises(self, mini_pipeline,
                                              default_flow):
        from repro.core import one_to_one_partition

        cache = GigaflowCache(
            num_tables=2, table_capacity=8,
            partitioner=one_to_one_partition,
        )
        traversal = mini_pipeline.execute(default_flow)  # 4 steps
        with pytest.raises(ValueError, match="cannot map"):
            cache.install_traversal(traversal)


class TestSharing:
    def test_shared_segment_reused_across_flows(self, mini_pipeline):
        """Two flows differing only in their ACL half share the L2-side
        sub-traversal rules (Fig. 5c)."""
        mini_pipeline.install(
            2,
            rule({"ip_dst": ip("10.9.0.0")},
                 masks={"ip_dst": prefix_mask(16)}, next_table=3),
        )
        mini_pipeline.install(
            3,
            rule({"ip_proto": 6, "tp_dst": 80}, actions=[Output(12)]),
        )
        cache = GigaflowCache(num_tables=4, table_capacity=16)
        flow_a = flow()
        flow_b = flow(ip_dst=ip("10.9.1.2"), tp_dst=80)
        cache.install_traversal(mini_pipeline.execute(flow_a))
        before = cache.entry_count()
        outcome_b = cache.install_traversal(mini_pipeline.execute(flow_b))
        assert outcome_b.reused >= 1
        assert cache.sharing_events >= 1
        # Fewer new entries than a full traversal's worth.
        assert cache.entry_count() - before < before

    def test_cross_product_pre_coverage(self, mini_pipeline):
        """After caching (A->svc1) and (B->svc2), the unseen combination
        (A->svc2) hits without any slow-path visit — the purple path."""
        mini_pipeline.install(
            1, rule({"eth_dst": 0xCC0000000001}, next_table=2))
        mini_pipeline.install(
            2, rule({"ip_dst": ip("10.9.0.0")},
                    masks={"ip_dst": prefix_mask(16)}, next_table=3))
        mini_pipeline.install(
            3, rule({"ip_proto": 6, "tp_dst": 80}, actions=[Output(12)]))
        cache = GigaflowCache(num_tables=4, table_capacity=32)
        a_svc1 = flow()
        b_svc2 = flow(eth_dst=0xCC0000000001, ip_dst=ip("10.9.1.2"),
                      tp_dst=80)
        cache.install_traversal(mini_pipeline.execute(a_svc1))
        cache.install_traversal(mini_pipeline.execute(b_svc2))
        a_svc2 = flow(eth_dst=0xCC0000000001, ip_dst=ip("10.9.7.7"),
                      tp_dst=80)
        result = cache.lookup(a_svc2)
        assert result.hit
        # And the cache result agrees with the slow path.
        expected = mini_pipeline.execute(a_svc2)
        assert result.output_port == \
            expected.steps[-1].actions.output_port()

    def test_average_sharing_metric(self, cache, mini_pipeline,
                                    default_flow):
        traversal = mini_pipeline.execute(default_flow)
        cache.install_traversal(traversal)
        assert cache.average_sharing() == 1.0
        cache.install_traversal(traversal)
        assert cache.average_sharing() == 2.0


class TestCapacityAndEviction:
    def _fill(self, cache, mini_pipeline, count):
        for port in range(2, 2 + count):
            mini_pipeline.install(0, rule({"in_port": port}, next_table=1))
            traversal = mini_pipeline.execute(flow(in_port=port))
            cache.install_traversal(traversal, now=float(port))

    def test_reject_policy_rejects_when_full(self, mini_pipeline):
        cache = GigaflowCache(num_tables=2, table_capacity=2,
                              eviction="reject")
        self._fill(cache, mini_pipeline, 8)
        assert cache.stats.rejected > 0
        assert cache.entry_count() <= cache.capacity_total()

    def test_lru_policy_evicts_instead(self, mini_pipeline):
        cache = GigaflowCache(num_tables=2, table_capacity=2,
                              eviction="lru")
        self._fill(cache, mini_pipeline, 8)
        assert cache.stats.evictions > 0
        assert cache.entry_count() <= cache.capacity_total()

    def test_evict_idle(self, cache, mini_pipeline, default_flow):
        traversal = mini_pipeline.execute(default_flow)
        cache.install_traversal(traversal, now=0.0)
        assert cache.evict_idle(now=100.0, max_idle=10.0) == \
            cache.stats.evictions
        assert cache.entry_count() == 0

    def test_evict_idle_keeps_recent(self, cache, mini_pipeline,
                                     default_flow):
        traversal = mini_pipeline.execute(default_flow)
        cache.install_traversal(traversal, now=0.0)
        cache.lookup(default_flow, now=95.0)  # refreshes last_used
        evicted = cache.evict_idle(now=100.0, max_idle=10.0)
        assert evicted == 0
        assert cache.lookup(default_flow, now=101.0).hit

    def test_clear(self, cache, mini_pipeline, default_flow):
        cache.install_traversal(mini_pipeline.execute(default_flow))
        cache.clear()
        assert cache.entry_count() == 0

    def test_per_table_counts_and_capacity(self, cache):
        assert cache.capacity_total() == 64
        assert cache.per_table_counts() == (0, 0, 0, 0)

    def test_remove_missing_raises(self, cache, mini_pipeline,
                                   default_flow):
        from repro.core import build_ltm_rule

        traversal = mini_pipeline.execute(default_flow)
        rule_obj = build_ltm_rule(traversal.sub(0, 1))
        with pytest.raises(KeyError):
            cache.remove(rule_obj, "reval")


class TestConstruction:
    def test_validates_params(self):
        with pytest.raises(ValueError):
            GigaflowCache(num_tables=0)
        with pytest.raises(ValueError):
            GigaflowCache(placement="bogus")
        with pytest.raises(ValueError):
            GigaflowCache(eviction="bogus")
