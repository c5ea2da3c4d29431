"""Recorded golden for the telemetry core's whole output surface.

Three seeded PSC runs with everything on (full event mask, storm + ACL
+ shuffle churn, capacity pressure) — one plain engine
run, a 4-worker inline sharded run, a leaf-spine fabric run with one
link failure — must reproduce, exactly, the sha256 of every JSONL trace
stream, the per-event-type counts, the sha256 of the (merged)
registry's Prometheus text and its occupancy, entry and capacity gauges
in ``tests/golden/telemetry_streams.json``, which this file's
``__main__`` writes.

Each scenario also carries ``replay_invariant``: the same exhaust
hashed with the walk-or-replay distinction taken out (the
``VIEW_WITHOUT_*`` tables).  A change that moves *which* hits are
replayed, or deletes a mechanism the view leaves out, re-records — and
the recorder refuses to write a golden whose view differs from the
committed one, which is the proof that nothing else moved (PRs 19, 20
and 22 landed that way).  When the *input* changes there is no such
proof to give: delete the golden and record from scratch, as PR 23 did
when pilot flows — hence flow ids and CRC shard routing — stopped
inheriting the interpreter's str-hash salt.  The sharded scenario alone
was re-recorded when inline shards stopped replaying on the pipeline the
previous shard's churn had mutated: its new recording is the one forked
workers always produced (only ``repro_churn_rule_ops_total`` and the
digest's ``churn.rule_ops`` moved; every stream is unchanged).  All
three were recorded from scratch again when the per-rule ``ewma``
timeout predictor the scenarios ran with was deleted: the idle sweep
they replay changed, and the exposition lost the three empty
``repro_timeout_*`` families.  And once more when chain repair went:
the scenarios had run with it on, and a walk that dead-ends no longer
refreshes the rules it matched.  The stale-record re-validation that
re-runs only the lookups whose bucket changed re-recorded through the
view: more hits replay and fewer walk, nothing else moved.  When the
``SimResult.telemetry`` digest was deleted (the registry is the one
telemetry record), its two entries were deleted from each scenario by
hand and nothing else in the golden changed.
"""

import collections
import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "telemetry_streams.json"

#: The PSC ACL stage (as in test_churn.py).
ACL_TABLE = 5
#: Small enough that capacity evictions split chains within the 6 s
#: trace.
TABLE_CAPACITY = 40
#: The gauge whose merged value is a ratio of sums, and its two terms.
OCCUPANCY = "repro_cache_occupancy_ratio"
ENTRIES = "repro_cache_entries"
CAPACITY = "repro_cache_capacity"
#: What the replay-invariant view leaves out.  Events only a full
#: chain walk (or a dropped memo record) emits; the ``snapshot`` fields
#: and families that count memo outcomes, per-walk classifier probes,
#: epoch bumps, victim ages or governor switches.
VIEW_WITHOUT_EVENTS = ("ltm_probe", "fastpath_invalidate", "mode_switch")
VIEW_WITHOUT_FIELDS = ("epoch", "epoch_delta")
VIEW_WITHOUT_FAMILIES = (
    "repro_fastpath_", "repro_ltm_probes_total", "repro_tss_lookups_total",
    "repro_epoch_bumps_total", "repro_eviction_victim_age_seconds",
    "repro_mode_switches_total",
)


def _universe():
    """Fresh (workload, trace, config kwargs): churn mutates pipelines."""
    from conftest import seeded_trace, seeded_workload
    from repro.sim import ChurnConfig
    from repro.workload import (
        acl_update_schedule,
        insert_delete_storm,
        priority_shuffle_schedule,
    )

    workload = seeded_workload()
    schedule = insert_delete_storm(
        workload.pilots, ACL_TABLE,
        start=1.0, count=6, gap=0.4, hold=0.9, seed=4,
    ).merged_with(
        acl_update_schedule(ACL_TABLE, 2.0, mask=0xFF800000, revert_at=4.0)
    ).merged_with(
        priority_shuffle_schedule(ACL_TABLE, [1.5, 3.5], seed=2)
    )
    kwargs = dict(
        max_idle=2.0,
        sweep_interval=1.0,
        churn=ChurnConfig(schedule=schedule, reval_budget=16),
    )
    return workload, seeded_trace(workload), kwargs


def _system(context=None):
    """Shard workers split the capacity, so they stay under pressure."""
    from repro.sim import GigaflowSystem

    return GigaflowSystem(
        num_tables=4,
        table_capacity=TABLE_CAPACITY // getattr(context, "parts", 1),
    )


def _streams(directory):
    """``{sink file name: sha256}``, the same with the walk-or-replay
    distinction taken out, and event counts over all sinks."""
    digests = {}
    invariant = {}
    counts = collections.Counter()
    for path in sorted(Path(directory).iterdir()):
        data = path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        kept = hashlib.sha256()
        for line in data.splitlines():
            record = json.loads(line)
            counts[record["event"]] += 1
            if record["event"] in VIEW_WITHOUT_EVENTS:
                continue
            if record["event"] == "fastpath_replay":
                record["event"] = "lookup_hit"
            for name in VIEW_WITHOUT_FIELDS:
                record.pop(name, None)
            kept.update(json.dumps(record).encode("utf-8") + b"\n")
        invariant[path.name] = kept.hexdigest()
    return digests, invariant, dict(sorted(counts.items()))


def _samples(text, family):
    """``{label string: value}`` of one family's sample lines."""
    prefix = family + "{"
    return {
        line.rpartition(" ")[0][len(family):]: float(line.rpartition(" ")[2])
        for line in text.splitlines()
        if line.startswith(prefix)
    }


def _prom(text, without_families=()):
    """sha256 of the exposition minus every line, metadata included,
    of ``without_families``."""
    prefixes = tuple(
        lead + family
        for family in without_families
        for lead in ("", "# HELP ", "# TYPE ")
    )
    kept = [
        line for line in text.splitlines() if not line.startswith(prefixes)
    ]
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


def _digest(directory, registry):
    """``(recorded digest, registry)`` of one scenario."""
    streams, invariant_streams, counts = _streams(directory)
    text = registry.to_prometheus()
    return {
        "streams": streams,
        "event_counts": counts,
        "prom_sha256": _prom(text),
        "replay_invariant": {
            "streams": invariant_streams,
            "prom_sha256": _prom(text, VIEW_WITHOUT_FAMILIES),
        },
        "gauges": {
            family: _samples(text, family)
            for family in (OCCUPANCY, ENTRIES, CAPACITY)
        },
    }, registry


def record_single():
    from repro.obs import Telemetry
    from repro.sim import SimConfig, VSwitchSimulator

    workload, trace, kwargs = _universe()
    with tempfile.TemporaryDirectory() as directory:
        telemetry = Telemetry(trace_sink=os.path.join(directory, "trace"))
        VSwitchSimulator(
            workload.pipeline, _system(),
            SimConfig(telemetry=telemetry, **kwargs),
        ).run(trace)
        telemetry.close()
        return _digest(directory, telemetry.registry)


def record_sharded():
    from repro.obs import Telemetry
    from repro.sim import ShardedSimulator, SimConfig

    workload, trace, kwargs = _universe()
    with tempfile.TemporaryDirectory() as directory:
        telemetry = Telemetry(trace_sink=os.path.join(directory, "trace"))
        driver = ShardedSimulator(
            workload.pipeline, _system,
            SimConfig(telemetry=telemetry, **kwargs),
            shards=4,
            mode="inline",
        )
        driver.run(trace)
        telemetry.close()
        return _digest(directory, driver.registry)


def record_fabric():
    from conftest import seeded_workload
    from repro.net import FabricController, FabricSimulator, leaf_spine
    from repro.obs import Telemetry
    from repro.sim import SimConfig
    from repro.workload import build_fabric_endpoints

    _workload, trace, kwargs = _universe()
    topology = leaf_spine(2, 2)
    endpoints = build_fabric_endpoints(topology, 250, locality=0.3, seed=5)
    with tempfile.TemporaryDirectory() as directory:
        telemetry = Telemetry(trace_sink=os.path.join(directory, "trace"))
        result = FabricSimulator(
            topology,
            # Same spec + seed => identical rule state per switch.
            lambda _context: seeded_workload().pipeline,
            # Switches do not split a capacity: each gets all of it.
            lambda _context: _system(),
            controller=FabricController(topology, endpoints),
            config=SimConfig(telemetry=telemetry, **kwargs),
            link_failures=[(2.0, "leaf0", "spine0")],
        ).run(trace)
        telemetry.close()
        return _digest(directory, result.registry)


def record_all():
    """``{scenario: (recorded digest, merged registry)}``."""
    return {
        "single": record_single(),
        "sharded": record_sharded(),
        "fabric": record_fabric(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current():
    return record_all()


def test_streams_match_parent_recording(golden, current):
    assert set(current) == set(golden)
    for scenario, recorded in golden.items():
        digest, _ = current[scenario]
        assert set(digest) == set(recorded), scenario
        for key, value in recorded.items():
            assert digest[key] == value, (scenario, key)
    # Every builtin event fires somewhere (``hop`` only in a fabric)
    # but ``mode_switch``: no governor here, tests/test_adaptive.py.
    assert len(golden["single"]["event_counts"]) == 10
    assert len(golden["fabric"]["event_counts"]) == 11
    for scenario in ("sharded", "fabric"):
        _, registry = current[scenario]
        victims = registry.get("repro_eviction_victim_age_seconds")
        assert sum(child.count for _, child in victims.children()), scenario


def test_merged_gauges_follow_the_new_rule(current):
    """Merged occupancy is merged entries / merged capacity, never the
    sum of the workers' ratios (four shards at 0.025 once scraped 0.1);
    per-switch labels do not collide, so in a fabric it holds label by
    label."""
    for scenario in ("sharded", "fabric"):
        gauges = current[scenario][0]["gauges"]
        assert gauges[ENTRIES] and any(gauges[ENTRIES].values()), scenario
        assert gauges[OCCUPANCY] == {
            labels: round(count / gauges[CAPACITY][labels], 6)
            for labels, count in gauges[ENTRIES].items()
        }, scenario


if __name__ == "__main__":
    recorded = {
        scenario: digest for scenario, (digest, _) in record_all().items()
    }
    if GOLDEN.exists():
        for scenario, parent in json.loads(GOLDEN.read_text()).items():
            assert (
                recorded[scenario]["replay_invariant"]
                == parent["replay_invariant"]
            ), f"{scenario}: more than the view leaves out has changed"
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
