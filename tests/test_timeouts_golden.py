"""Golden tests for the global idle sweep.

The digests below were captured on the tree before per-rule timeout
prediction existed (commit ``5ac6df1``) from fixed-seed pipebench
workloads.  That predictor was later measured against the static
``max_idle`` timer and deleted (``docs/eviction.md``, "Measured and
deleted"); the sweep that remains must reproduce every field exactly.

``COST`` and ``SHARDED`` are PR 23's: latency and the CPU cycle counters
ride on ``groups_probed``, and shard routing on the pilots' ``tp_src``,
both of which moved with the interpreter's str-hash salt until the
generated rulesets stopped depending on it, so no constant could pin
them before.
"""

import pytest

from repro.obs import Telemetry
from repro.sim import (
    GigaflowSystem,
    MegaflowSystem,
    ShardedSimulator,
    SimConfig,
    VSwitchSimulator,
)
from conftest import seeded_trace, seeded_workload
from test_obs import result_cost

#: (hits, misses, insertions, rejected, evictions, packets,
#:  entry_count, peak_entries, cache_probes) captured on the
#: pre-predictor tree (commit 5ac6df1).
GOLDEN = {
    ("idle", "megaflow"): (4974, 1637, 1637, 0, 1636, 6611, 1, 120, 77887),
    ("idle", "gigaflow"): (5296, 1315, 831, 0, 827, 6611, 4, 240, 129523),
    ("tight", "megaflow"): (3977, 2634, 2634, 0, 2633, 6611, 1, 120, 80815),
    ("tight", "gigaflow"): (4648, 1963, 3242, 0, 3238, 6611, 4, 240, 79175),
    ("slowpath", "megaflow"): (
        4989, 1622, 1622, 0, 1621, 6611, 1, 120, 78275
    ),
    ("slowpath", "gigaflow"): (
        5264, 1347, 785, 0, 784, 6611, 1, 240, 133419
    ),
}

#: (avg_latency_us, avg_miss_cost_us, (pipeline, partition, rulegen
#:  cycles, slow-path invocations)) of the same runs.
COST = {
    ("idle", "megaflow"): (18.873344425954155, 50.02797800855212,
        (4260780, 0, 654800, 1637)),
    ("idle", "gigaflow"): (18.930800181513337, 60.45627376425897,
        (3430980, 1175020, 570900, 1315)),
    ("tight", "megaflow"): (25.152554832852143, 50.11457858769866,
        (6878580, 0, 1053600, 2634)),
    ("tight", "gigaflow"): (26.122910301011416, 67.56637799286871,
        (5152920, 1785560, 1985550, 1963)),
    ("slowpath", "megaflow"): (18.778547874751606, 50.024537607891396,
        (4221180, 0, 648800, 1622)),
    ("slowpath", "gigaflow"): (19.135150506728916, 60.22776540460325,
        (3514980, 1203300, 555500, 1347)),
}

#: ``stable_digest + result_cost`` of the merged ``shards=2`` runs.
SHARDED = {
    "megaflow": (4739, 1872, 1872, 0, 1870, 6611, 2, 120, 62976,
        20.352500378158375, 50.05352564102587,
        (4877220, 0, 748800, 1872)),
    "gigaflow": (4975, 1636, 1810, 0, 1802, 6611, 8, 240, 104879,
        21.847632733323813, 62.07224938875322,
        (4268340, 1473080, 985000, 1636)),
}

#: The three scenario configs: idle-sweep dominant, tight sweeps and
#: the non-fast-path (streaming slow path) loop.
CONFIGS = {
    "idle": dict(max_idle=4.0, sweep_interval=2.0, fast_path=True),
    "tight": dict(max_idle=1.0, sweep_interval=0.5, fast_path=True),
    "slowpath": dict(max_idle=6.0, sweep_interval=3.0, fast_path=False),
}

SYSTEMS = {
    "megaflow": lambda: MegaflowSystem(capacity=120),
    "gigaflow": lambda: GigaflowSystem(num_tables=4, table_capacity=60),
}

SHARD_FACTORIES = {
    "megaflow": lambda ctx: MegaflowSystem(capacity=60),
    "gigaflow": lambda ctx: GigaflowSystem(num_tables=4, table_capacity=30),
}


def make_workload():
    return seeded_workload(n_flows=400)


def make_trace(workload):
    return seeded_trace(workload, duration=12.0)


def run_single(config_name, system):
    workload = make_workload()
    simulator = VSwitchSimulator(
        workload.pipeline, SYSTEMS[system](), SimConfig(**CONFIGS[config_name])
    )
    return simulator.run(make_trace(workload))


def stable_digest(result):
    stats = result.stats
    return (
        stats.hits, stats.misses, stats.insertions, stats.rejected,
        stats.evictions, result.packets, result.entry_count,
        result.peak_entries, result.cache_probes,
    )


class TestMatchesSeed:
    """The idle sweep reproduces the pre-predictor tree's digests
    exactly."""

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_matches_seed_golden(self, config_name, system):
        result = run_single(config_name, system)
        assert stable_digest(result) == GOLDEN[(config_name, system)]
        assert result_cost(result) == COST[(config_name, system)]


class TestShardedMatchesSeed:
    """``shards=2`` runs reproduce the recorded constants, worker
    fan-out included."""

    @pytest.mark.parametrize("system", sorted(SHARD_FACTORIES))
    def test_sharded_matches_seed(self, system):
        workload = make_workload()
        driver = ShardedSimulator(
            workload.pipeline,
            SHARD_FACTORIES[system],
            SimConfig(
                max_idle=2.0,
                sweep_interval=1.0,
                fast_path=True,
                telemetry=Telemetry(),
            ),
            shards=2,
            mode="inline",
        )
        result = driver.run(make_trace(workload))
        assert stable_digest(result) + result_cost(result) == SHARDED[system]
