"""Tests for cache revalidation (§4.3)."""

import pytest

from repro.cache import MegaflowCache
from repro.core import (
    GigaflowCache,
    GigaflowRevalidator,
    MegaflowRevalidator,
)
from repro.flow import Output, ip, prefix_mask
from conftest import flow, rule


@pytest.fixture
def filled(mini_pipeline, default_flow):
    megaflow = MegaflowCache(capacity=32)
    gigaflow = GigaflowCache(num_tables=4, table_capacity=32)
    traversal = mini_pipeline.execute(default_flow)
    megaflow.install_traversal(traversal, 0)
    gigaflow.install_traversal(traversal)
    return mini_pipeline, megaflow, gigaflow


class TestConsistentPipeline:
    def test_nothing_evicted_when_consistent(self, filled):
        pipeline, megaflow, gigaflow = filled
        mf_report = MegaflowRevalidator(pipeline, megaflow).revalidate()
        gf_report = GigaflowRevalidator(pipeline, gigaflow).revalidate()
        assert mf_report.entries_evicted == 0
        assert gf_report.entries_evicted == 0
        assert megaflow.entry_count() == 1
        assert gigaflow.entry_count() > 0

    def test_gigaflow_replays_fewer_lookups_total(self, filled):
        """Sub-traversal replays cost per-rule length; a Megaflow entry
        replays the full traversal.  With shared rules Gigaflow's total is
        at most Megaflow's (and strictly less once sharing kicks in)."""
        pipeline, megaflow, gigaflow = filled
        # Install a second flow sharing the L2 side.
        pipeline.install(
            3, rule({"ip_proto": 6, "tp_dst": 80}, actions=[Output(3)])
        )
        second = flow(tp_dst=80)
        megaflow.install_traversal(pipeline.execute(second), 0)
        gigaflow.install_traversal(pipeline.execute(second))
        mf = MegaflowRevalidator(pipeline, megaflow).revalidate()
        gf = GigaflowRevalidator(pipeline, gigaflow).revalidate()
        assert gf.lookups_performed < mf.lookups_performed


class TestRuleChangeEviction:
    def test_megaflow_evicts_on_action_change(self, filled):
        pipeline, megaflow, _ = filled
        # Override the ACL verdict with a higher-priority rule.
        pipeline.install(
            3,
            rule({"ip_proto": 6, "tp_dst": 443}, priority=999,
                 actions=[Output(42)]),
        )
        report = MegaflowRevalidator(pipeline, megaflow).revalidate()
        assert report.entries_evicted == 1
        assert megaflow.entry_count() == 0

    def test_gigaflow_evicts_only_stale_sub_traversals(self, filled):
        """§4.3.2: only the sub-traversal touching the changed table is
        evicted; sibling segments survive."""
        pipeline, _, gigaflow = filled
        before = gigaflow.entry_count()
        pipeline.install(
            3,
            rule({"ip_proto": 6, "tp_dst": 443}, priority=999,
                 actions=[Output(42)]),
        )
        report = GigaflowRevalidator(pipeline, gigaflow).revalidate()
        assert report.entries_evicted >= 1
        assert gigaflow.entry_count() == before - report.entries_evicted
        assert gigaflow.entry_count() > 0  # L2-side rules survive

    def test_next_hop_change_evicts_chain_link(self, filled):
        pipeline, _, gigaflow = filled
        # Redirect the l3 table to a different (now dropping) ACL rule.
        pipeline.install(
            2,
            rule({"ip_dst": ip("192.168.1.7")},
                 masks={"ip_dst": prefix_mask(32)},
                 priority=999, next_table=3),
        )
        report = GigaflowRevalidator(pipeline, gigaflow).revalidate()
        assert report.entries_evicted >= 1


class TestIdleSweep:
    def test_sweep_idle_delegates(self, filled):
        _, megaflow, gigaflow = filled
        assert megaflow.evict_idle(now=1000.0, max_idle=1.0) == 1
        assert gigaflow.evict_idle(now=1000.0, max_idle=1.0) > 0
