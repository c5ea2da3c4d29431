"""Tests for the §6.1 baseline-configuration driver."""

import pytest

from repro.experiments import (
    BASELINE_CONFIGS,
    ExperimentScale,
    compare_baselines,
)
from repro.sim import HierarchySystem

TINY = ExperimentScale(n_flows=400, cache_capacity=200)


class TestHierarchySystem:
    def test_install_cost_shape(self, mini_pipeline, default_flow):
        system = HierarchySystem(microflow_capacity=8,
                                 megaflow_capacity=8)
        traversal = mini_pipeline.execute(default_flow)
        cost = system.install(traversal, generation=0, now=0.0)
        assert cost.rules_generated == 1
        assert cost.rules_installed == 1
        assert cost.k_tables == 0


class TestCompareBaselines:
    @pytest.fixture(scope="class")
    def results(self):
        return compare_baselines("PSC", scale=TINY)

    def test_all_configs_present(self, results):
        assert set(results) == {label for label, _, _ in BASELINE_CONFIGS}

    def test_offloads_beat_kernel(self, results):
        assert (results["OVS/Gigaflow-Offload"].avg_latency_us
                < results["OVS/Kernel (host)"].avg_latency_us)
        assert (results["OVS/Megaflow-Offload"].avg_latency_us
                < results["OVS/Kernel (host)"].avg_latency_us)

    def test_arm_slower_than_host(self, results):
        assert (results["OVS/DPDK (BlueField ARM)"].avg_latency_us
                > results["OVS/DPDK (host)"].avg_latency_us)
        assert (results["OVS/Kernel (BlueField ARM)"].avg_latency_us
                > results["OVS/Kernel (host)"].avg_latency_us)

    def test_hit_rates_sane(self, results):
        for result in results.values():
            assert 0.0 < result.hit_rate <= 1.0
