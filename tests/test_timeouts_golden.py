"""Golden tests for the global idle sweep.

The digests below were captured on the tree before per-rule timeout
prediction existed (commit ``5ac6df1``) from fixed-seed pipebench
workloads.  That predictor was later measured against the static
``max_idle`` timer and deleted (``docs/eviction.md``, "Measured and
deleted"); the sweep that remains must reproduce every field exactly.

The Gigaflow rows (and the Gigaflow ``SHARDED`` row) were re-recorded
once, when a lookup that dead-ends stopped refreshing the chain head it
matched: a stranded head now ages out under this very sweep, so each
run misses less (idle 1 315 → 969, tight 1 963 → 1 900, slowpath
1 347 → 953, sharded 1 636 → 1 303).  The Megaflow rows have no
chains and did not move.

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
#: pre-predictor tree (commit 5ac6df1); Gigaflow re-recorded as above.
GOLDEN = {
    ("idle", "megaflow"): (4974, 1637, 1637, 0, 1636, 6611, 1, 120, 77887),
    ("idle", "gigaflow"): (5642, 969, 767, 0, 763, 6611, 4, 240, 140645),
    ("tight", "megaflow"): (3977, 2634, 2634, 0, 2633, 6611, 1, 120, 80815),
    ("tight", "gigaflow"): (4711, 1900, 3269, 0, 3265, 6611, 4, 240, 81382),
    ("slowpath", "megaflow"): (
        4989, 1622, 1622, 0, 1621, 6611, 1, 120, 78275
    ),
    ("slowpath", "gigaflow"): (
        5658, 953, 705, 0, 704, 6611, 1, 240, 147140
    ),
}

#: (avg_latency_us, avg_miss_cost_us, (pipeline, partition, rulegen
#:  cycles, slow-path invocations)) of the same runs.
COST = {
    ("idle", "megaflow"): (18.873344425954155, 50.02797800855212,
        (4260780, 0, 654800, 1637)),
    ("idle", "gigaflow"): (16.263627287851293, 60.76862745098085,
        (2525940, 865340, 464550, 969)),
    ("tight", "megaflow"): (25.152554832852143, 50.11457858769866,
        (6878580, 0, 1053600, 2634)),
    ("tight", "gigaflow"): (25.666316744817287, 67.93221052631655,
        (4984260, 1728860, 1986600, 1900)),
    ("slowpath", "megaflow"): (18.778547874751606, 50.024537607891396,
        (4221180, 0, 648800, 1622)),
    ("slowpath", "gigaflow"): (16.094533353499447, 60.47114375655872,
        (2486880, 851620, 429750, 953)),
}

#: ``stable_digest + result_cost`` of the merged ``shards=2`` runs.
SHARDED = {
    "megaflow": (4739, 1872, 1872, 0, 1870, 6611, 2, 120, 62976,
        20.352500378158375, 50.05352564102587,
        (4877220, 0, 748800, 1872)),
    "gigaflow": (5308, 1303, 1745, 0, 1737, 6611, 8, 240, 116844,
        19.318311904402847, 62.89976976208753,
        (3398640, 1176000, 896250, 1303)),
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
    """The idle sweep reproduces the recorded digests exactly."""

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
