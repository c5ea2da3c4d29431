"""Tests for the latency and CPU cost models."""

import pytest

from repro.metrics import (
    CpuBreakdown,
    HIT_LATENCY_US,
    LatencyModel,
    UPCALL_US,
    US_PER_DP_CELL,
    partition_us,
    per_core_miss_load,
    pipeline_us,
    rulegen_us,
    software_search_us,
)


class TestLatencyConstants:
    def test_section_636_table(self):
        """The paper's measured hit latencies, in order."""
        assert HIT_LATENCY_US["fpga_offload"] == 8.62
        assert HIT_LATENCY_US["dpdk_host"] == 12.61
        assert HIT_LATENCY_US["dpdk_arm"] == 51.26
        assert HIT_LATENCY_US["kernel_host"] == 671.48
        assert HIT_LATENCY_US["kernel_arm"] == 3606.37

    def test_offload_is_fastest(self):
        assert min(HIT_LATENCY_US, key=HIT_LATENCY_US.get) == "fpga_offload"


class TestLatencyModel:
    def test_average_mixes_hit_and_miss(self):
        model = LatencyModel(backend="fpga_offload")
        assert model.average_us(1.0, 100.0) == pytest.approx(8.62)
        assert model.average_us(0.0, 100.0) == pytest.approx(100.0)
        assert model.average_us(0.5, 100.0) == pytest.approx(54.31)

    def test_bad_hit_rate_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel().average_us(1.5, 10.0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            LatencyModel(backend="quantum").hit_us

    def test_slowpath_components(self):
        base = pipeline_us(lookups=0, groups_probed=0)
        assert base == UPCALL_US
        assert pipeline_us(10, 0) > base
        assert partition_us(10, 4) == pytest.approx(US_PER_DP_CELL * 40)
        assert rulegen_us(0) == 0.0
        assert rulegen_us(3) > 0

    def test_slowpath_within_paper_envelope(self):
        """§6.3.1: even large pipelines stay within ~200 µs."""
        ols_like = (
            pipeline_us(lookups=16, groups_probed=40)
            + partition_us(16, 4)
            + rulegen_us(4)
        )
        assert 50.0 < ols_like < 200.0


class TestSearchCosts:
    def test_tss_scales_with_groups(self):
        assert software_search_us("tss", mask_groups=10) == pytest.approx(
            10 * software_search_us("tss", mask_groups=1)
        )

    def test_nm_cheaper_than_large_tss(self):
        tss = software_search_us("tss", mask_groups=30)
        nm = software_search_us("nm", isets=4, remainder_groups=3)
        assert nm < tss

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            software_search_us("bloom")


class TestCpuBreakdown:
    def test_charges_accumulate(self):
        cpu = CpuBreakdown()
        cpu.charge_pipeline(lookups=5, groups_probed=10)
        cpu.charge_partition(5, 4)
        cpu.charge_rulegen(3, 2)
        assert cpu.pipeline_cycles > 0
        assert cpu.partition_cycles > 0
        assert cpu.rulegen_cycles > 0

    def test_overhead_fraction(self):
        cpu = CpuBreakdown()
        assert cpu.overhead_fraction == 0.0
        cpu.charge_pipeline(10, 0)
        assert cpu.overhead_fraction == 0.0  # Megaflow-style
        cpu.charge_partition(10, 4)
        assert cpu.overhead_fraction > 0.0

    def test_merge(self):
        a = CpuBreakdown(pipeline_cycles=10, partition_cycles=5)
        b = CpuBreakdown(pipeline_cycles=1, rulegen_cycles=2)
        merged = a.merged_with(b)
        assert merged.pipeline_cycles == 11
        assert merged.partition_cycles == 5
        assert merged.rulegen_cycles == 2


class TestCoreScaling:
    def test_per_core_load(self):
        assert per_core_miss_load(1000, 1) == 1000
        assert per_core_miss_load(1000, 4) == 250

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            per_core_miss_load(10, 0)
