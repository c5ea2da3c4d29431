"""Tests for the experiment infrastructure (scales, runners, caching)."""

import pytest

from repro import gates
from repro.cli import build_parser, scale_from_args
from repro.experiments.common import (
    BENCH_SCALE,
    GF_TABLES,
    ExperimentScale,
    MEDIUM_SCALE,
    PAPER_SCALE,
    SMALL_SCALE,
)


class TestExperimentScale:
    def test_defaults_mirror_paper_ratio(self):
        # ~3:1 flows to cache entries, like 100K:32K.
        ratio = SMALL_SCALE.n_flows / SMALL_SCALE.cache_capacity
        paper = PAPER_SCALE.n_flows / PAPER_SCALE.cache_capacity
        assert ratio == pytest.approx(paper, rel=0.05)

    def test_gf_table_capacity_divides_total(self):
        scale = ExperimentScale(cache_capacity=1000)
        assert scale.gf_table_capacity == 1000 // GF_TABLES == 250

    def test_trace_profile_fields(self):
        profile = SMALL_SCALE.trace_profile()
        assert profile.mean_flow_size == SMALL_SCALE.mean_flow_size
        assert profile.duration == SMALL_SCALE.duration

    def test_sim_config_window_override(self):
        config = SMALL_SCALE.sim_config(window=3.0)
        assert config.window == 3.0
        assert config.max_idle == SMALL_SCALE.max_idle

    def test_hashable_for_memoisation(self):
        assert hash(SMALL_SCALE) == hash(ExperimentScale())

    @pytest.mark.parametrize("field, value", [
        ("n_flows", 0),
        ("n_flows", -3),
        ("cache_capacity", 0),
        ("cache_capacity", -5),
        ("mean_flow_size", 0.0),
        ("mean_packet_gap", -1.0),
        ("duration", 0.0),
        ("duration", float("nan")),
        ("max_idle", -0.5),
    ])
    def test_fields_are_checked(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentScale(**{field: value})

    def test_zero_idle_timer_and_default_capacity_are_valid(self):
        scale = ExperimentScale(n_flows=10, cache_capacity=None, max_idle=0)
        assert scale.capacity == 20
        assert ExperimentScale(n_flows=3, cache_capacity=None).capacity == 8


def _resolved(scale):
    return (
        scale.n_flows, scale.capacity, scale.mean_flow_size,
        scale.duration, scale.mean_packet_gap, scale.trace_seed,
    )


class TestResolvedScales:
    """What each command and ``repro bench`` phase runs at by default —
    flows, capacity, mean flow size, duration, packet gap, trace seed —
    read off the scale it is built from, with no simulation."""

    @pytest.mark.parametrize("argv, expected", [
        (["bench"], (2000, 4000, 128.0, 30.0, 1.0, 3)),
        (["stats"], (1000, 2000, 64.0, 20.0, 1.0, 3)),
        (["serve"], (400, 800, 24.0, 30.0, 1.0, 3)),
        (["net"], (400, 800, 24.0, 10.0, 1.0, 3)),
        (["compare", "psc"], (3000, 1000, 12.0, 60.0, 4.0, 1)),
        (["sweep", "psc"], (3000, 1000, 12.0, 60.0, 4.0, 1)),
        (["coverage", "psc"], (3000, 1000, 12.0, 60.0, 4.0, 1)),
        # An unset capacity follows the flags' flows, by each family's
        # rule: twice the flows, or a third of them; at least 8 either way.
        (["stats", "--flows", "3"], (3, 8, 64.0, 20.0, 1.0, 3)),
        (["compare", "psc", "--flows", "600"], (600, 200, 12.0, 60.0, 4.0, 1)),
        (["sweep", "psc", "--flows", "20"], (20, 8, 12.0, 60.0, 4.0, 1)),
        (["serve", "--capacity", "50"], (400, 50, 24.0, 30.0, 1.0, 3)),
    ])
    def test_command(self, argv, expected):
        scale = scale_from_args(build_parser().parse_args(argv))
        assert _resolved(scale) == expected

    def test_shards_phase_resizes_flows_then_capacity(self):
        scale = gates.shards_scale(BENCH_SCALE)
        assert _resolved(scale) == (12500, 25000, 128.0, 30.0, 1.0, 3)
        pinned = gates.shards_scale(
            ExperimentScale(**{**vars(BENCH_SCALE), "cache_capacity": 500})
        )
        assert pinned.capacity == 500

    def test_net_phase_has_a_flow_floor_and_its_own_capacity(self):
        assert _resolved(gates.net_scale(BENCH_SCALE)) == (
            2000, 593, 128.0, 30.0, 1.0, 3
        )
        smoke = gates.net_scale(gates.smoked(BENCH_SCALE))
        assert (smoke.n_flows, smoke.capacity) == (1200, 356)

    def test_smoke_shrinks_every_phase(self):
        assert _resolved(gates.smoked(BENCH_SCALE)) == (
            300, 600, 64.0, 8.0, 1.0, 3
        )

    @pytest.mark.parametrize("scale, expected", [
        (SMALL_SCALE, (3000, 1000, 12.0, 60.0, 4.0, 1)),
        (MEDIUM_SCALE, (6000, 2000, 12.0, 60.0, 4.0, 1)),
        (PAPER_SCALE, (100_000, 32_768, 16.0, 60.0, 4.0, 1)),
    ])
    def test_presets(self, scale, expected):
        assert _resolved(scale) == expected
        assert (scale.max_idle, scale.seed) == (20.0, 7)


class TestFactories:
    def test_make_megaflow_capacity(self):
        scale = ExperimentScale(cache_capacity=400)
        assert scale.system("megaflow").cache.capacity == 400

    def test_make_gigaflow_shape(self):
        scale = ExperimentScale(cache_capacity=400)
        system = scale.system("gigaflow")
        assert len(system.cache.tables) == 4
        assert system.cache.capacity_total() == 400

    def test_make_gigaflow_overrides(self):
        scale = ExperimentScale(cache_capacity=400)
        system = scale.system("gigaflow", num_tables=2, placement="earliest")
        assert len(system.cache.tables) == 2
        assert system.cache.placement == "earliest"

    def test_unknown_system_is_named(self):
        with pytest.raises(ValueError, match="'tcam'"):
            SMALL_SCALE.system("tcam")

    def test_fresh_workloads_are_independent(self):
        scale = ExperimentScale(n_flows=150, cache_capacity=50)
        a = scale.workload()
        b = scale.workload()
        assert a is not b
        assert a.pipeline is not b.pipeline
        assert [p.flow for p in a.pilots] == [p.flow for p in b.pilots]
