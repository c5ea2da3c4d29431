"""Tests for the multi-seed replication driver."""

import pytest

from repro.experiments import ExperimentScale, Statistic, replicate_pair


class TestStatistic:
    def test_mean_std(self):
        stat = Statistic.of([1.0, 2.0, 3.0])
        assert stat.mean == pytest.approx(2.0)
        assert stat.std == pytest.approx((2.0 / 3.0) ** 0.5)

    def test_single_sample(self):
        stat = Statistic.of([5.0])
        assert stat.mean == 5.0
        assert stat.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Statistic.of([])

    def test_str(self):
        assert "±" in str(Statistic.of([1.0, 2.0]))


class TestReplicatePair:
    def test_gigaflow_wins_across_seeds(self):
        scale = ExperimentScale(n_flows=1200, cache_capacity=560)
        result = replicate_pair("PSC", seeds=(7, 11), scale=scale)
        assert result.seeds == (7, 11)
        assert len(result.hit_rate_gain.samples) == 2
        # The headline claim should not be a one-seed fluke.
        assert all(gain > 0 for gain in result.hit_rate_gain.samples)
        assert result.gigaflow_hit_rate.mean > result.megaflow_hit_rate.mean
        assert result.gigaflow_misses.mean < result.megaflow_misses.mean
