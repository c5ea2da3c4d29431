"""Parent-recorded golden for the telemetry core's whole output surface.

``tests/golden/telemetry_streams.json`` was written by this file's
``__main__`` on commit ``460d799`` — the last one whose
``obs/telemetry.py`` spelled every trace-emit stanza, pending-cell fold
and digest-merge field out by hand.  That code is gone, so this
recording is the differential: three seeded PSC runs with everything
on (full event mask, storm + ACL + shuffle churn, ``ewma`` timeouts,
chain repair) must reproduce, exactly,

* the sha256 of every JSONL trace stream and the per-event-type counts,
* the sha256 of the registry's Prometheus text,
* the ``SimResult.telemetry`` digest,

for one plain engine run, a 4-worker inline sharded run and a
leaf-spine fabric run with one link failure (merged registry, merged
digest).  The one sanctioned difference is the merged-gauge bugfix:
``repro_cache_occupancy_ratio`` is not additive, so its sample lines
are left out of the hash (``gauges`` in the golden holds what the
parent scraped) and checked against the new rule instead.

Since PR 19 a Gigaflow fast-path record whose epoch went stale is
re-validated instead of dropped, so *which* hits are replayed moved,
and with it everything only a full chain walk emits.  The streams were
re-recorded for that once, and each scenario carries the proof that
nothing else moved: ``replay_invariant`` hashes the same exhaust with
the walk-or-replay distinction taken out (``fastpath_replay`` read as
the ``lookup_hit`` it stands in for; the events, families and digest
keys only a full walk or a dropped record feeds left out — the
``VIEW_WITHOUT_*`` tables).  Those hashes were recorded by this file on
the *parent* of PR 19 (``6bab403``) and the recorder refuses to write a
golden in which they differ.  The same PR stopped a revalidation cycle
bumping the mutation epoch once more than its removals already had, so
the view also leaves out the epoch *numbering* — every event that bumps
is still there.

PR 20 made LRU the only eviction order and took the controller's
eviction-policy knob away, which in these scenarios had switched the
tables to a second policy mid-run.  Re-recorded once more, by the same
method: the view now also leaves out the two families and two digest
keys that named the policy (``repro_evictions_by_policy_total``, the
``policy`` label of ``repro_eviction_victim_age_seconds``,
``victim_ages``, the controller's own digest), and its hashes are those
of PR 20's parent (``237d232``) run with that knob off
(``ControllerConfig(manage_policy=False)``) — every trace stream,
``controller`` and ``evict`` events included, and every other family
is as that run left it.

PR 22 deleted the adaptive controller (``docs/adaptive.md``, "Measured
and deleted"), which these scenarios had attached for its chain repair;
they now build their caches with ``chain_repair=True``.  Re-recorded a
third time, same method: the view also leaves out the ``controller``
event (row 10 of ``EVENTS``, now ``mode_switch``), the controller's two
families and the one counter that replaced them, and the digest keys
that named it (``controller``, the predictor's ``aggressiveness``, the
new ``mode_switches``).  Its hashes are those of PR 22's parent
(``376b938``) run with ``ControllerConfig(manage_timeout=False,
occupancy_low=0.0, dwell=10**9)`` — chain repair on, neither knob able
to move (without the ``dwell`` the placement knob still fired once per
cache, on the drained cache at the end of the trace; the view hashes
are the same either way) — and ``parent_reference`` in the golden is
that run's transition count per knob: the recorder refuses to write
unless ``placement`` and ``timeout_scale`` read zero there and the view
hashes still match.

Flow ids and CRC shard routing inherit Python's per-process str-hash
salt (ROADMAP item 2), so both the recorder and the test run the
scenarios in a ``PYTHONHASHSEED=0`` subprocess.
"""

import collections
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "telemetry_streams.json"
SRC = Path(__file__).resolve().parent.parent / "src"

#: The PSC ACL stage (as in test_churn.py).
ACL_TABLE = 5
#: Small enough that capacity evictions and chain repair fire within
#: the 6 s trace.
TABLE_CAPACITY = 40
#: Gauge families whose *merged* value the bugfix changes.
CHANGED_GAUGES = ("repro_cache_occupancy_ratio",)
#: What the replay-invariant view leaves out.  Events only a full
#: chain walk (or a dropped memo record) emits; the ``snapshot`` fields,
#: families and ``SimResult.telemetry`` keys that count memo outcomes,
#: per-walk classifier probes or epoch bumps.
VIEW_WITHOUT_EVENTS = (
    "ltm_probe", "fastpath_invalidate", "controller", "mode_switch",
)
VIEW_WITHOUT_FIELDS = ("epoch", "epoch_delta")
VIEW_WITHOUT_FAMILIES = (
    "repro_fastpath_", "repro_ltm_probes_total", "repro_tss_lookups_total",
    "repro_epoch_bumps_total",
    "repro_evictions_by_policy_total", "repro_eviction_victim_age_seconds",
    "repro_controller_", "repro_mode_switches_total",
)
#: Left out at any depth (``aggressiveness`` sat under ``timeouts``).
VIEW_WITHOUT_DIGEST = (
    "fastpath", "trace_events", "epoch_bumps", "victim_ages", "controller",
    "mode_switches", "aggressiveness", "per_shard_aggressiveness",
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
        timeouts="ewma",
        churn=ChurnConfig(schedule=schedule, reval_budget=16),
    )
    return workload, seeded_trace(workload), kwargs


def _system(context=None):
    """Shard workers split the capacity, so they stay under pressure."""
    from repro.sim import GigaflowSystem

    return GigaflowSystem(
        num_tables=4,
        table_capacity=TABLE_CAPACITY // getattr(context, "shards", 1),
        chain_repair=True,
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
    """sha256 of the exposition minus the changed gauges' sample lines
    (and every line, metadata included, of ``without_families``)."""
    prefixes = tuple(f"{name}{{" for name in CHANGED_GAUGES) + tuple(
        lead + family
        for family in without_families
        for lead in ("", "# HELP ", "# TYPE ")
    )
    kept = [
        line for line in text.splitlines() if not line.startswith(prefixes)
    ]
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


def _digest_view(digest):
    return {
        key: _digest_view(value) if isinstance(value, dict) else value
        for key, value in digest.items()
        if key not in VIEW_WITHOUT_DIGEST
    }


def _digest(directory, registry, telemetry):
    streams, invariant_streams, counts = _streams(directory)
    text = registry.to_prometheus()
    telemetry = json.loads(json.dumps(telemetry))
    return {
        "streams": streams,
        "event_counts": counts,
        "prom_sha256": _prom(text),
        "replay_invariant": {
            "streams": invariant_streams,
            "prom_sha256": _prom(text, VIEW_WITHOUT_FAMILIES),
            "telemetry_sha256": hashlib.sha256(
                json.dumps(
                    _digest_view(telemetry), sort_keys=True
                ).encode("utf-8")
            ).hexdigest(),
        },
        "gauges": {
            family: _samples(text, family)
            for family in CHANGED_GAUGES
            + ("repro_cache_entries", "repro_cache_capacity")
        },
        # Through JSON so tuples and lists compare alike.
        "telemetry": telemetry,
    }


def record_single():
    from repro.obs import Telemetry
    from repro.sim import SimConfig, VSwitchSimulator

    workload, trace, kwargs = _universe()
    with tempfile.TemporaryDirectory() as directory:
        telemetry = Telemetry(trace_sink=os.path.join(directory, "trace"))
        result = VSwitchSimulator(
            workload.pipeline, _system(),
            SimConfig(telemetry=telemetry, **kwargs),
        ).run(trace)
        telemetry.close()
        return _digest(directory, telemetry.registry, result.telemetry)


def record_sharded():
    from repro.obs import Telemetry
    from repro.sim import ShardedSimulator, SimConfig

    workload, trace, kwargs = _universe()
    with tempfile.TemporaryDirectory() as directory:
        telemetry = Telemetry(trace_sink=os.path.join(directory, "trace"))
        driver = ShardedSimulator(
            workload.pipeline, _system,
            SimConfig(telemetry=telemetry, shards=4, **kwargs),
            mode="inline",
        )
        result = driver.run(trace)
        telemetry.close()
        return _digest(directory, driver.registry, result.telemetry)


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
            _system,
            controller=FabricController(topology, endpoints),
            config=SimConfig(telemetry=telemetry, **kwargs),
            link_failures=[(2.0, "leaf0", "spine0")],
        ).run(trace)
        telemetry.close()
        return _digest(directory, result.registry, result.merged.telemetry)


def record_all():
    return {
        "single": record_single(),
        "sharded": record_sharded(),
        "fabric": record_fabric(),
    }


def _record_in_subprocess():
    """Run :func:`record_all` under ``PYTHONHASHSEED=0``."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, __file__, "--print"],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current():
    return _record_in_subprocess()


def test_streams_match_parent_recording(golden, current):
    assert set(current) == set(golden)
    for scenario, recorded in golden.items():
        replayed = current[scenario]
        for key in (
            "streams", "event_counts", "prom_sha256", "telemetry",
            "replay_invariant",
        ):
            assert replayed[key] == recorded[key], (scenario, key)
    # An unmerged registry is untouched by the bugfix.
    assert current["single"]["gauges"] == golden["single"]["gauges"]
    # Every builtin event fires somewhere (``hop`` only in a fabric)
    # but ``mode_switch``: no governor here, tests/test_adaptive.py.
    assert len(golden["single"]["event_counts"]) == 11
    assert len(golden["fabric"]["event_counts"]) == 12
    for scenario in ("sharded", "fabric"):
        assert golden[scenario]["telemetry"]["victim_ages"]["count"], scenario


def test_merged_gauges_follow_the_new_rule(golden, current):
    """The family the golden lists apart.  The parent summed it across
    workers (four shards at 0.025 scraped 0.1); merged occupancy is now
    merged entries / capacity."""
    (occupancy,) = CHANGED_GAUGES
    parent = golden["sharded"]["gauges"]
    entries = parent["repro_cache_entries"]['{cache="gigaflow"}']
    capacity = parent["repro_cache_capacity"]['{cache="gigaflow"}']
    assert parent[occupancy] == {
        '{cache="gigaflow"}': pytest.approx(4 * entries / capacity)
    }
    for scenario in ("sharded", "fabric"):
        gauges = current[scenario]["gauges"]
        for family in ("repro_cache_entries", "repro_cache_capacity"):
            assert gauges[family] == golden[scenario]["gauges"][family]
        assert gauges[occupancy] == {
            labels: round(
                count / gauges["repro_cache_capacity"][labels], 6
            )
            for labels, count in gauges["repro_cache_entries"].items()
        }, scenario
    # Per-switch labels never collided, so fabric occupancy is as it was.
    assert (
        current["fabric"]["gauges"][occupancy]
        == golden["fabric"]["gauges"][occupancy]
    )


if __name__ == "__main__":
    if "--print" in sys.argv:
        print(json.dumps(record_all()))
    else:
        recorded = _record_in_subprocess()
        # A re-recording keeps what earlier parents scraped: the merged
        # gauges of PR 15's, and the invariant view of PR 22's with the
        # proof that its controller steered nothing.
        for scenario, parent in json.loads(GOLDEN.read_text()).items():
            if scenario != "single":
                recorded[scenario]["gauges"] = parent["gauges"]
            reference = parent["parent_reference"]
            assert not (
                reference["by_knob"].get("placement")
                or reference["by_knob"].get("timeout_scale")
            ), f"{scenario}: the reference run's controller moved a knob"
            recorded[scenario]["parent_reference"] = reference
            assert (
                recorded[scenario]["replay_invariant"]
                == parent["replay_invariant"]
            ), f"{scenario}: more than the view leaves out has changed"
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=1)
            handle.write("\n")
        print(f"wrote {GOLDEN}")
