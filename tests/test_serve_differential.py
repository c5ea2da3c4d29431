"""Differential battery: serving ≡ streaming ≡ batched, under churn.

The serving driver's claim is strong: chunking a packet stream into
micro-batches of *any* size — including sizes that straddle sweep,
snapshot and churn deadlines — changes nothing observable.  These tests
enforce it three ways:

* **Batch-size sweep** — serve at sizes 1 (every packet its own batch),
  7 (prime, never aligned with any cadence), 37 (straddles the 1 s sweep
  cadence mid-batch) and one huge batch (the whole trace at once) against
  the streaming loop, with churn active.
* **Config × schedule matrix** — every cadence-bearing config crossed
  with every churn family (storm, ACL push/revert, priority shuffles,
  all merged), streaming vs serving; plus a three-way check against the
  batched/columnar loop.
* **Property test** — hypothesis drives arbitrary batch sizes at the
  richest config; shrinking a failure lands on the smallest batch size
  that breaks bit-identity, which names the guilty cadence directly.

Churn mutates the pipeline, so *every run builds a fresh identically
seeded universe* (workload, trace, schedule) — sharing a pipeline
between two runs would let the first run's mutations leak into the
second's baseline.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import seeded_trace, seeded_workload
from test_obs import result_fingerprint
from repro.obs import Telemetry
from repro.serve import ServeConfig, ServingDriver, stream_trace
from repro.sim import ChurnConfig, GigaflowSystem, SimConfig, VSwitchSimulator
from repro.workload import (
    acl_update_schedule,
    insert_delete_storm,
    priority_shuffle_schedule,
)

ACL_TABLE = 5

# ---------------------------------------------------------------------------
# Universes: fresh (workload, trace, schedule) per run


def storm_schedule(workload):
    return insert_delete_storm(
        workload.pilots, ACL_TABLE,
        start=1.0, count=6, gap=0.4, hold=0.9, seed=4,
    )


def acl_shuffle_schedule(workload):
    return acl_update_schedule(
        ACL_TABLE, 2.0, mask=0xFF800000, revert_at=4.0
    ).merged_with(
        priority_shuffle_schedule(ACL_TABLE, [1.5, 3.5], seed=2)
    )


def mixed_schedule(workload):
    return storm_schedule(workload).merged_with(
        acl_shuffle_schedule(workload)
    )


SCHEDULES = {
    "none": None,
    "storm": storm_schedule,
    "acl+shuffle": acl_shuffle_schedule,
    "mixed": mixed_schedule,
}

CONFIGS = {
    "plain": dict(max_idle=0.0, sweep_interval=1.0),
    "sweeps": dict(max_idle=2.0, sweep_interval=1.0),
    "sweeps+telemetry": dict(
        max_idle=2.0, sweep_interval=1.0, telemetry=True
    ),
}

RICH = ("sweeps+telemetry", "mixed")


def build_config(config_name, schedule_name, workload):
    overrides = dict(CONFIGS[config_name])
    if overrides.pop("telemetry", False):
        overrides["telemetry"] = Telemetry()
    builder = SCHEDULES[schedule_name]
    if builder is not None:
        overrides["churn"] = ChurnConfig(
            schedule=builder(workload), reval_budget=16
        )
    return SimConfig(**overrides)


def system():
    return GigaflowSystem(num_tables=4, table_capacity=400)


def run_streaming(config_name, schedule_name):
    workload = seeded_workload()
    trace = seeded_trace(workload)
    config = build_config(config_name, schedule_name, workload)
    simulator = VSwitchSimulator(workload.pipeline, system(), config)
    return simulator.run_packets(stream_trace(trace)), config, simulator.churn


def run_batched(config_name, schedule_name):
    workload = seeded_workload()
    trace = seeded_trace(workload)
    config = build_config(config_name, schedule_name, workload)
    simulator = VSwitchSimulator(workload.pipeline, system(), config)
    return simulator.run(trace), config, simulator.churn


def run_serving(config_name, schedule_name, batch_size):
    workload = seeded_workload()
    trace = seeded_trace(workload)
    config = build_config(config_name, schedule_name, workload)
    driver = ServingDriver(
        workload.pipeline, system(), config,
        ServeConfig(batch_size=batch_size),
    )
    return driver.serve(stream_trace(trace)), config, driver.churn


def signature(run):
    """What a run shows: its result, its hub's registry and its churn
    runtime's digest (``run`` is ``(result, config, churn runtime)``)."""
    result, config, churn = run
    hub = config.telemetry
    return (
        result_fingerprint(result),
        hub.registry.to_json() if hub is not None else None,
        churn.digest() if churn is not None else None,
    )


_baselines = {}


def baseline(config_name, schedule_name):
    key = (config_name, schedule_name)
    if key not in _baselines:
        _baselines[key] = signature(
            run_streaming(config_name, schedule_name)
        )
    return _baselines[key]


# ---------------------------------------------------------------------------
# The battery


class TestMicroBatchSizes:
    #: 1 = maximal chunking; 7 = prime, drifts across every cadence;
    #: 37 = several batches per 1 s sweep interval, straddling deadlines
    #: mid-batch; 100000 = the whole trace in one process() call.
    SIZES = (1, 7, 37, 100_000)

    @pytest.mark.parametrize("batch_size", SIZES)
    def test_serve_is_batch_size_invariant_under_churn(self, batch_size):
        config_name, schedule_name = RICH
        served = signature(
            run_serving(config_name, schedule_name, batch_size)
        )
        assert served == baseline(config_name, schedule_name)


class TestConfigScheduleMatrix:
    @pytest.mark.parametrize("schedule_name", sorted(SCHEDULES))
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_serving_equals_streaming(self, config_name, schedule_name):
        served = signature(run_serving(config_name, schedule_name, 64))
        assert served == baseline(config_name, schedule_name)

    def test_three_way_with_batched_loop(self):
        # The batched/columnar loop shares the cadence logic with both:
        # pin all three loops to one fingerprint in the richest cell.
        config_name, schedule_name = RICH
        batched = signature(run_batched(config_name, schedule_name))
        served = signature(run_serving(config_name, schedule_name, 256))
        assert batched == baseline(config_name, schedule_name)
        assert served == batched

    def test_churn_digest_present_and_complete(self):
        _, _, digest = baseline(*RICH)
        workload = seeded_workload()
        assert digest["events"] == len(mixed_schedule(workload))
        assert digest["pending_events"] == 0
        assert digest["reval_evicted"] > 0
        assert digest["rule_ops"]["install"] >= 7
        assert digest["rule_ops"]["remove"] >= 7


class TestTraceStreamEquivalence:
    """One kernel, three drivers: not only the ``SimResult`` but the
    *trace event stream* — every event's kind, fields and ``ts`` — is
    the same however packets reach the kernel.  The config is the one
    that used to tell the loops apart: idle expiry on a sub-second
    sweep cadence (idle-``evict`` events are stamped from the hub's
    clock, not from an argument) with churn on top."""

    #: 1 and 37 straddle every cadence; 100000 is the whole trace.
    SIZES = (1, 37, 100_000)

    @staticmethod
    def run(drive):
        workload = seeded_workload()
        trace = seeded_trace(workload)
        telemetry = Telemetry(tracing=True, trace_capacity=1 << 20)
        config = SimConfig(
            max_idle=1.0,
            sweep_interval=0.5,
            telemetry=telemetry,
            churn=ChurnConfig(
                schedule=mixed_schedule(workload), reval_budget=16
            ),
        )
        result, churn = drive(workload.pipeline, config, trace)
        assert telemetry.tracer.dropped == 0
        events = list(telemetry.tracer.iter_dicts())
        return signature((result, config, churn)), events

    @staticmethod
    def streaming(pipeline, config, trace):
        simulator = VSwitchSimulator(pipeline, system(), config)
        return simulator.run_packets(stream_trace(trace)), simulator.churn

    @staticmethod
    def columnar(pipeline, config, trace):
        simulator = VSwitchSimulator(pipeline, system(), config)
        return simulator.run(trace), simulator.churn

    @staticmethod
    def serving(batch_size):
        def drive(pipeline, config, trace):
            driver = ServingDriver(
                pipeline, system(), config,
                ServeConfig(batch_size=batch_size),
            )
            return driver.serve(stream_trace(trace)), driver.churn

        return drive

    def test_every_driver_emits_the_same_events(self):
        reference, events = self.run(self.streaming)
        kinds = {event["event"] for event in events}
        assert {"evict", "sweep", "install", "revalidate"} <= kinds
        assert any(
            event["event"] == "evict" and event["reason"] == "idle"
            for event in events
        )
        drivers = {"columnar": self.columnar}
        for size in self.SIZES:
            drivers[f"serving/{size}"] = self.serving(size)
        for name, drive in drivers.items():
            got, got_events = self.run(drive)
            assert got == reference, name
            assert got_events == events, name


class TestBatchSizeProperty:
    @given(batch_size=st.integers(min_value=1, max_value=5000))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_batch_size_is_bit_identical(self, batch_size):
        config_name, schedule_name = RICH
        served = signature(
            run_serving(config_name, schedule_name, batch_size)
        )
        assert served == baseline(config_name, schedule_name)
