"""Every count the telemetry registry exports has one home.

A count only the hub keeps (lookup depth and probe histograms, install
counters, per-table probe and per-classifier search counters) lives in
its registry child and is incremented there, so it is exact at any
moment.  A count another object keeps is folded from that object, never
tallied twice: hits and misses from the cache's ``CacheStats``, churn
and revalidation ticks from the ``ChurnRuntime``.  These tests read the
registry against those homes, so a second copy that drifts from them
fails here.
"""

import itertools

import pytest

from conftest import seeded_trace, seeded_workload
from repro.net import FabricController, FabricSimulator, leaf_spine
from repro.obs import Telemetry
from repro.sim import (
    ChurnConfig,
    ShardedSimulator,
    SimConfig,
    VSwitchSimulator,
)
from repro.sim import fastpath as fastpath_module
from repro.sim.batch import column_pairs
from repro.experiments import SYSTEMS, ExperimentScale
from repro.workload import (
    acl_update_schedule,
    build_fabric_endpoints,
    insert_delete_storm,
)

#: The PSC ACL stage (as in test_churn.py).
ACL_TABLE = 5


def make_system(name, capacity):
    """A caching system under capacity pressure at 220 flows."""
    return ExperimentScale(cache_capacity=capacity).system(name)


def total(registry, family, **labels):
    """Sum of a family's children whose labels include ``labels``
    (counters and gauges: ``value``; histograms: ``count``)."""
    metric = registry.get(family)
    out = 0
    for values, child in metric.children():
        named = dict(zip(metric.label_names, values))
        if all(named[key] == value for key, value in labels.items()):
            out += child.count if metric.kind == "histogram" else child.value
    return out


def histogram_sum(registry, family):
    return sum(child.sum for _, child in registry.get(family).children())


def assert_counts_have_one_home(registry, result):
    assert total(registry, "repro_cache_lookups_total", result="hit") == (
        result.stats.hits
    )
    assert total(registry, "repro_cache_lookups_total", result="miss") == (
        result.stats.misses
    )
    assert total(registry, "repro_lookup_depth") == result.packets
    assert total(registry, "repro_lookup_groups_probed") == result.packets
    assert histogram_sum(registry, "repro_lookup_groups_probed") == (
        result.cache_probes
    )


def config(**kwargs):
    return SimConfig(
        max_idle=2.0, sweep_interval=1.0, telemetry=Telemetry(), **kwargs
    )


def churn_config(workload):
    """An ACL storm plus a mask update and its revert."""
    schedule = insert_delete_storm(
        workload.pilots, ACL_TABLE,
        start=1.0, count=6, gap=0.4, hold=0.9, seed=4,
    ).merged_with(
        acl_update_schedule(ACL_TABLE, 2.0, mask=0xFF800000, revert_at=4.0)
    )
    return ChurnConfig(schedule=schedule, reval_budget=16)



@pytest.mark.parametrize("system", SYSTEMS)
def test_a_single_engine_run(system):
    workload = seeded_workload()
    cfg = config()
    result = VSwitchSimulator(
        workload.pipeline, make_system(system, 120), cfg
    ).run(seeded_trace(workload))
    assert result.stats.hits and result.stats.misses
    assert_counts_have_one_home(cfg.telemetry.registry, result)


def test_a_two_shard_inline_run():
    workload = seeded_workload()
    driver = ShardedSimulator(
        workload.pipeline,
        lambda _context: make_system("gigaflow", 60),
        config(),
        shards=2,
        mode="inline",
    )
    result = driver.run(seeded_trace(workload))
    assert_counts_have_one_home(driver.registry, result)


def test_a_leaf_spine_fabric_run():
    topology = leaf_spine(2, 2)
    fabric = FabricSimulator(
        topology,
        lambda _context: seeded_workload().pipeline,
        lambda _context: make_system("gigaflow", 120),
        controller=FabricController(
            topology,
            build_fabric_endpoints(topology, 220, locality=0.3, seed=5),
        ),
        config=config(),
    )
    fres = fabric.run(seeded_trace(seeded_workload()))
    assert fres.merged.packets > len(fres.switches)
    assert_counts_have_one_home(fres.registry, fres.merged)


def test_churn_families_are_the_runtime_digest():
    workload = seeded_workload()
    cfg = config(churn=churn_config(workload))
    simulator = VSwitchSimulator(
        workload.pipeline, make_system("gigaflow", 120), cfg
    )
    result = simulator.run(seeded_trace(workload))
    digest = simulator.churn.digest()
    registry = cfg.telemetry.registry
    assert digest["events"] and digest["reval_ticks"]

    def children(family):
        metric = registry.get(family)
        return {values: child.value for values, child in metric.children()}

    name = result.system
    assert children("repro_churn_events_total") == {
        (name, kind): count
        for kind, count in digest["events_by_kind"].items()
    }
    assert children("repro_churn_rule_ops_total") == {
        (name, op): count
        for op, count in digest["rule_ops"].items()
        if count
    }
    assert children("repro_reval_ticks_total") == {
        (name,): digest["reval_ticks"]
    }
    assert children("repro_reval_backlog_entries") == {
        (name,): digest["backlog"]
    }


def test_an_owned_count_is_exact_between_runs_without_a_flush():
    """Before the first sweep interval has elapsed no flush has run, and
    the depth histogram already counts every packet looked up."""
    workload = seeded_workload()
    cfg = config()
    kernel = VSwitchSimulator(
        workload.pipeline, make_system("gigaflow", 120), cfg
    ).kernel()
    pairs = [
        (now, flow)
        for now, flow in itertools.chain(*column_pairs(seeded_trace(workload)))
        if now < cfg.sweep_interval
    ]
    assert len(pairs) > 20
    depth = cfg.telemetry.registry.get("repro_lookup_depth")
    (child,) = (child for _, child in depth.children())
    for run in (pairs[:10], pairs[10:]):
        kernel.run(run)
        assert not cfg.telemetry.snapshots
        assert child.count == kernel.packet_count == sum(child.counts)
    assert kernel.packet_count == len(pairs)


LOOKUP_HISTOGRAMS = ("repro_lookup_depth", "repro_lookup_groups_probed")


def lookup_histograms(registry):
    """Every child of the two lookup histograms: bucket counts and
    ``sum``."""
    return {
        family: {
            values: (list(child.counts), child.sum)
            for values, child in registry.get(family).children()
        }
        for family in LOOKUP_HISTOGRAMS
    }


def histograms_of(system, fast_path, churned, chunk):
    """The lookup histograms of one run fed ``chunk`` packets per
    ``run`` call, and its fast-path memo (``None`` with it off)."""
    workload = seeded_workload()
    cfg = config(
        fast_path=fast_path,
        churn=churn_config(workload) if churned else None,
    )
    kernel = VSwitchSimulator(
        workload.pipeline, make_system(system, 120), cfg
    ).kernel()
    pairs = list(itertools.chain(*column_pairs(seeded_trace(workload))))
    for start in range(0, len(pairs), chunk):
        kernel.run(pairs[start:start + chunk])
    kernel.finish()
    return lookup_histograms(cfg.telemetry.registry), kernel.fastpath


@pytest.mark.parametrize("chunk", [7, 1 << 20])
@pytest.mark.parametrize(
    "system, churned",
    [(system, False) for system in SYSTEMS]
    + [("gigaflow", True), ("adaptive", True), ("megaflow", True)],
)
def test_lookup_histograms_are_the_same_with_the_memo_on_and_off(
    system, churned, chunk
):
    """Metrics-only, the memo files the histograms from per-record
    tallies (a replay's own call is gone); the children must be what
    the per-packet hook files with the memo off, in every run shape."""
    on, fastpath = histograms_of(system, True, churned, chunk)
    off, _ = histograms_of(system, False, churned, chunk)
    assert fastpath.memo_hits
    if churned and system != "megaflow":
        assert fastpath.revalidated and fastpath.invalidations
    assert on == off


def test_lookup_histograms_survive_a_memo_clear(monkeypatch):
    """With the memo bound small, every clear files its records'
    tallies before it drops them."""
    monkeypatch.setattr(fastpath_module, "MEMO_ENTRIES", 8)
    on, fastpath = histograms_of("gigaflow", True, True, 64)
    assert len(fastpath) <= 8 and fastpath.memo_hits
    monkeypatch.undo()
    off, _ = histograms_of("gigaflow", False, True, 64)
    assert on == off
