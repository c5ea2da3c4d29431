"""Differential golden tests: LRU orders victims exactly as it always has.

Victim order has had three homes: hard-coded bookkeeping (an
``OrderedDict`` in Microflow/LtmTable, a scan in Megaflow), then a
pluggable policy interface with a parallel recency dict per table, and
now each cache's own id → entry index, kept in use order.  The digests
below were captured on the first of those trees (commit ``eed4304``)
from fixed-seed pipebench workloads and have been edited once since:
the Gigaflow capacity-pressure row, when a lookup that dead-ends
stopped refreshing the chain head it matched (690 → 484 misses — the
stranded heads now age out of the LRU order instead of staying at its
recent end).  Every field must still reproduce exactly.

The ``COST_*`` tables beside them are PR 23's: latency and the CPU cycle
counters ride on ``groups_probed``, which moved with the interpreter's
str-hash salt until the generated rulesets stopped depending on it, so
no constant could pin them before.
"""

import pytest

from repro.pipeline import PSC
from repro.sim import (
    GigaflowSystem,
    HierarchySystem,
    MegaflowSystem,
    SimConfig,
    VSwitchSimulator,
)
from repro.workload import build_workload
from test_obs import result_cost

#: Scenario A — idle sweeps dominate (capacity is never the binding
#: constraint for megaflow/hierarchy; gigaflow still sees LRU churn).
GOLDEN_IDLE = {
    "megaflow": dict(
        hits=1785, misses=415, insertions=415, rejected=0, evictions=414,
        packets=2200, entry_count=1, peak_entries=72, cache_probes=20309,
    ),
    "gigaflow": dict(
        hits=1867, misses=333, insertions=562, rejected=0, evictions=558,
        packets=2200, entry_count=4, peak_entries=144, cache_probes=17126,
    ),
    "hierarchy": dict(
        hits=1785, misses=415, insertions=0, rejected=0, evictions=0,
        packets=2200, entry_count=1, peak_entries=114, cache_probes=8461,
        microflow=(1784, 416, 416, 415, 1),
        megaflow=(1, 415, 415, 415, 0),
    ),
}

#: Scenario B — pure capacity pressure (idle expiry off), the regime
#: where victim *selection order* decides every number below.  The
#: hierarchy row also pins its sub-caches, exercising the Microflow
#: OrderedDict extraction and the Megaflow scan replacement together.
GOLDEN_PRESSURE = {
    "megaflow": dict(
        hits=1759, misses=441, insertions=441, rejected=0, evictions=393,
        packets=2200, entry_count=48, peak_entries=48, cache_probes=19422,
    ),
    "gigaflow": dict(
        hits=1716, misses=484, insertions=448, rejected=0, evictions=352,
        packets=2200, entry_count=96, peak_entries=96, cache_probes=56217,
    ),
    "hierarchy": dict(
        hits=1737, misses=463, insertions=0, rejected=0, evictions=0,
        packets=2200, entry_count=72, peak_entries=72, cache_probes=13456,
        microflow=(1271, 929, 929, 905, 24),
        megaflow=(466, 463, 463, 415, 48),
    ),
}

#: Per scenario and system: ``(avg_latency_us, avg_miss_cost_us,
#: (pipeline, partition, rulegen cycles, slow-path invocations))``.
COST_IDLE = {
    "megaflow": (16.413954545454715, 49.93734939759042,
        (1076400, 0, 166000, 415)),
    "gigaflow": (18.05951818181857, 70.98318318318306,
        (865620, 299320, 417300, 333)),
    "hierarchy": (16.413954545454715, 49.93734939759042,
        (1076400, 0, 166000, 415)),
}
COST_PRESSURE = {
    "megaflow": (16.898990909091136, 49.92108843537424,
        (1143120, 0, 176400, 441)),
    "gigaflow": (19.892509090909666, 59.858677685950184,
        (1257780, 434980, 214950, 484)),
    "hierarchy": (17.30997272727302, 49.91144708423336,
        (1199700, 0, 185200, 463)),
}


def _systems(megaflow_capacity, table_capacity, microflow_capacity):
    return {
        "megaflow": lambda: MegaflowSystem(capacity=megaflow_capacity),
        "gigaflow": lambda: GigaflowSystem(
            num_tables=4, table_capacity=table_capacity
        ),
        "hierarchy": lambda: HierarchySystem(
            microflow_capacity=microflow_capacity,
            megaflow_capacity=megaflow_capacity,
        ),
    }


def _run(make_system, max_idle):
    workload = build_workload(PSC, n_flows=400, locality="high", seed=11)
    trace = workload.trace(seed=3)
    config = SimConfig(
        max_idle=max_idle, sweep_interval=2.0, fast_path=True
    )
    simulator = VSwitchSimulator(workload.pipeline, make_system(), config)
    return simulator, simulator.run(trace)


def _digest(simulator, result):
    stats = result.stats
    digest = dict(
        hits=stats.hits, misses=stats.misses,
        insertions=stats.insertions, rejected=stats.rejected,
        evictions=stats.evictions, packets=result.packets,
        entry_count=result.entry_count, peak_entries=result.peak_entries,
        cache_probes=result.cache_probes,
    )
    cache = simulator.system.cache
    for sub in ("microflow", "megaflow"):
        inner = getattr(cache, sub, None)
        if inner is not None and inner is not cache:
            digest[sub] = (
                inner.stats.hits, inner.stats.misses,
                inner.stats.insertions, inner.stats.evictions,
                inner.entry_count(),
            )
    return digest


class TestPlainLruIsBitIdentical:
    @pytest.mark.parametrize("system", sorted(GOLDEN_IDLE))
    def test_idle_sweep_scenario(self, system):
        make = _systems(120, 60, 60)[system]
        simulator, result = _run(make, max_idle=4.0)
        golden = dict(GOLDEN_IDLE[system])
        assert _digest(simulator, result) == golden
        assert result_cost(result) == COST_IDLE[system]

    @pytest.mark.parametrize("system", sorted(GOLDEN_PRESSURE))
    def test_capacity_pressure_scenario(self, system):
        make = _systems(48, 24, 24)[system]
        simulator, result = _run(make, max_idle=0.0)
        golden = dict(GOLDEN_PRESSURE[system])
        digest = _digest(simulator, result)
        for sub in ("microflow", "megaflow"):
            if sub in digest and sub not in golden:
                del digest[sub]
        assert digest == golden
        assert result_cost(result) == COST_PRESSURE[system]
