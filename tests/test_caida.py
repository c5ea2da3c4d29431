"""Tests for the CAIDA-like traffic models."""

import numpy as np
import pytest

from repro.workload.caida import (
    CAIDA_PROFILE,
    MAX_FLOW_SIZE,
    MEAN_PACKET_SIZE,
    TraceProfile,
    sample_flow_sizes,
    sample_flow_starts,
    sample_packet_sizes,
    sample_packet_times,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestProfile:
    def test_defaults_valid(self):
        assert CAIDA_PROFILE.mean_flow_size >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceProfile(mean_flow_size=0.5)
        with pytest.raises(ValueError):
            TraceProfile(duration=0)


class TestFlowSizes:
    def test_sizes_bounded(self, rng):
        sizes = sample_flow_sizes(rng, 5000, CAIDA_PROFILE)
        assert sizes.min() >= 1
        assert sizes.max() <= MAX_FLOW_SIZE

    def test_heavy_tail(self, rng):
        """Most flows are mice; a few elephants carry many packets."""
        sizes = sample_flow_sizes(rng, 20000, CAIDA_PROFILE)
        median = np.median(sizes)
        p99 = np.percentile(sizes, 99)
        assert p99 > 5 * median

    def test_mean_close_to_target(self, rng):
        measured = sample_flow_sizes(rng, 100_000, CAIDA_PROFILE).mean()
        assert measured == pytest.approx(
            CAIDA_PROFILE.mean_flow_size, rel=0.35
        )


class TestTimestamps:
    def test_flow_starts_sorted_within_duration(self, rng):
        starts = sample_flow_starts(rng, 1000, CAIDA_PROFILE)
        assert np.all(np.diff(starts) >= 0)
        assert starts.min() >= 0
        assert starts.max() <= CAIDA_PROFILE.duration

    def test_offset_shifts_starts(self, rng):
        starts = sample_flow_starts(rng, 100, CAIDA_PROFILE, offset=300.0)
        assert starts.min() >= 300.0

    def test_packet_times_start_at_flow_start(self, rng):
        times = sample_packet_times(rng, 5.0, 10, CAIDA_PROFILE)
        assert times[0] == 5.0
        assert np.all(np.diff(times) >= 0)
        assert len(times) == 10

    def test_single_packet_flow(self, rng):
        times = sample_packet_times(rng, 1.0, 1, CAIDA_PROFILE)
        assert list(times) == [1.0]

    def test_zero_packets_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_packet_times(rng, 0.0, 0, CAIDA_PROFILE)


class TestPacketSizes:
    def test_floor_64_bytes(self, rng):
        sizes = sample_packet_sizes(rng, 10000)
        assert sizes.min() >= 64

    def test_mean_in_range(self, rng):
        sizes = sample_packet_sizes(rng, 50000)
        assert sizes.mean() == pytest.approx(MEAN_PACKET_SIZE, rel=0.2)
