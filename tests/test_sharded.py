"""Tests for the sharded multi-worker engine and the columnar driver.

The contracts pinned here, in order:

* **Columnar fidelity** — ``run(trace)`` (chunked column decode)
  produces a bit-identical :class:`~repro.sim.results.SimResult` to
  ``run_packets(stream_trace(trace))``, across systems and across every
  cadence-bearing config (idle sweeps, telemetry).
* **Shard assignment** — flows map to shards stably, every packet of a
  flow lands on one shard, and the per-shard traces partition the
  parent exactly.
* **Single-shard golden** — one shard through
  :class:`~repro.sim.sharded.ShardedSimulator` is bit-identical to the
  classic :class:`~repro.sim.engine.VSwitchSimulator`.
* **Inline ≡ processes** — real worker processes produce exactly the
  merged result the sequential in-process protocol does, run after run
  (determinism), with lossless conservation against the per-shard parts
  — also under churn, where each inline shard runs on its own copy of
  the caller's pipeline, as a forked one does.
* **Loud failure** — a raising worker (in either mode), a hard-crashing
  worker, and a wall-clock overrun each surface with the shard's name
  and the partial results that did complete.
"""

import dataclasses
import os
import time

import pytest

from conftest import seeded_trace, seeded_workload
from test_obs import result_fingerprint
from repro.obs import Telemetry
from repro.serve import stream_trace
from repro.sim import (
    ChurnConfig,
    GigaflowSystem,
    MegaflowSystem,
    PartContext,
    PartError,
    ShardTimeoutError,
    ShardedSimulator,
    SimConfig,
    SimResult,
    TimeSeries,
    VSwitchSimulator,
    flow_shard,
    split_trace,
)
from repro.workload import insert_delete_storm, priority_shuffle_schedule
# The conftest defaults (220 flows, 24-packet flows over 6 s) are this
# module's numbers — goldens here were captured against them.
small_workload = seeded_workload
small_trace = seeded_trace

#: The PSC ACL stage (as in test_churn.py).
ACL_TABLE = 5


def gigaflow_factory(context):
    return GigaflowSystem(
        num_tables=4, table_capacity=max(8, 400 // context.parts)
    )


def megaflow_factory(context):
    return MegaflowSystem(capacity=max(8, 400 // context.parts))


def sim_config(**overrides):
    base = dict(max_idle=2.0, sweep_interval=1.0, fast_path=True)
    base.update(overrides)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# Columnar driver fidelity


BATCH_CONFIGS = {
    "plain": dict(max_idle=0.0),
    "sweeps": dict(max_idle=2.0),
    "telemetry": dict(max_idle=0.0, telemetry=True),
    "sweeps+telemetry": dict(max_idle=2.0, telemetry=True),
    "no-fastpath": dict(max_idle=2.0, fast_path=False),
}


class TestBatchedLoopFidelity:
    """run(trace) decodes the trace's columns; run_packets streams
    Packet objects.  Both feed one kernel, and these differentials pin
    that the decode is observably indistinguishable."""

    @pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
    @pytest.mark.parametrize("system_factory", [
        gigaflow_factory, megaflow_factory,
    ], ids=["gigaflow", "megaflow"])
    def test_batched_equals_streaming(self, name, system_factory):
        fingerprints = []
        telemetries = []
        for columnar in (True, False):
            overrides = dict(BATCH_CONFIGS[name])
            hub = Telemetry() if overrides.pop("telemetry", False) else None
            overrides["telemetry"] = hub
            workload = small_workload()
            trace = small_trace(workload)
            simulator = VSwitchSimulator(
                workload.pipeline,
                system_factory(_context(shards=1)),
                sim_config(**overrides),
            )
            if columnar:
                result = simulator.run(trace)
            else:
                result = simulator.run_packets(stream_trace(trace))
            assert result.packets == len(trace)
            fingerprints.append(result_fingerprint(result))
            telemetries.append(hub and hub.registry.to_json())
        assert fingerprints[0] == fingerprints[1]
        assert telemetries[0] == telemetries[1]


def _context(shards, shard_id=0):
    return PartContext(f"shard{shard_id}", shard_id, shards)


# ---------------------------------------------------------------------------
# Shard assignment and trace splitting


class TestShardAssignment:
    def test_flow_shard_is_stable_and_in_range(self):
        workload = small_workload()
        for pilot in workload.pilots:
            sid = flow_shard(pilot.flow, 4)
            assert 0 <= sid < 4
            assert flow_shard(pilot.flow, 4) == sid

    def test_all_shards_used(self):
        workload = small_workload()
        used = {flow_shard(p.flow, 4) for p in workload.pilots}
        assert used == {0, 1, 2, 3}

    def test_split_partitions_exactly(self):
        workload = small_workload()
        trace = small_trace(workload)
        parts = split_trace(trace, 4)
        assert len(parts) == 4
        assert sum(len(part) for part in parts) == len(trace)
        # Flow-consistency: every packet of a flow is on its shard.
        for sid, part in enumerate(parts):
            _times, indices, _sizes = part.columns()
            for index in set(indices.tolist()):
                assert flow_shard(trace.pilots[index].flow, 4) == sid

    def test_split_preserves_time_order(self):
        workload = small_workload()
        trace = small_trace(workload)
        for part in split_trace(trace, 3):
            times, _indices, _sizes = part.columns()
            times = times.tolist()
            assert times == sorted(times)

    def test_single_shard_split_is_the_trace(self):
        workload = small_workload()
        trace = small_trace(workload)
        assert split_trace(trace, 1) == [trace]


# ---------------------------------------------------------------------------
# Single-shard golden: sharded == classic engine, bit for bit


class TestSingleShardGolden:
    def test_shards_1_bit_identical_to_classic_engine(self):
        classic_workload = small_workload()
        classic_hub = Telemetry()
        classic = VSwitchSimulator(
            classic_workload.pipeline,
            gigaflow_factory(_context(1)),
            sim_config(telemetry=classic_hub),
        ).run(small_trace(classic_workload))

        sharded_workload = small_workload()
        driver = ShardedSimulator(
            sharded_workload.pipeline,
            gigaflow_factory,
            sim_config(telemetry=Telemetry()),
            shards=1,
        )
        sharded = driver.run(small_trace(sharded_workload))

        assert result_fingerprint(sharded) == result_fingerprint(classic)
        assert (
            driver.registry.to_prometheus()
            == classic_hub.registry.to_prometheus()
        )
        assert len(driver.shard_results) == 1
        assert driver.shard_timings[0]["packets"] == sharded.packets


# ---------------------------------------------------------------------------
# Multi-shard runs: inline ≡ processes, conservation, determinism


def _run_sharded(mode, shards=2, telemetry=True, workload_seed=11):
    workload = small_workload(seed=workload_seed)
    config = sim_config(telemetry=Telemetry() if telemetry else None)
    driver = ShardedSimulator(
        workload.pipeline,
        gigaflow_factory,
        config,
        shards=shards,
        mode=mode,
        timeout=120.0,
    )
    return driver, driver.run(small_trace(workload))


class TestShardedRuns:
    def test_processes_equal_inline(self):
        inline_driver, inline = _run_sharded("inline")
        proc_driver, proc = _run_sharded("processes")
        assert result_fingerprint(proc) == result_fingerprint(inline)
        assert (
            proc_driver.registry.to_prometheus()
            == inline_driver.registry.to_prometheus()
        )

    def test_processes_equal_inline_under_churn(self):
        """Churn mutates the rules a shard runs on.  Inline shards once
        shared the caller's pipeline, so shard 1 started from the rules
        shard 0's churn left behind (a storm whose deletes outlive the
        trace, two re-rankings) and the caller's pipeline came back
        changed; forked shards never did either."""
        runs = []
        for mode in ("inline", "processes"):
            workload = small_workload(n_flows=300)
            schedule = insert_delete_storm(
                workload.pilots, ACL_TABLE,
                start=1.0, count=8, gap=0.5, hold=10.0, seed=4,
            ).merged_with(
                priority_shuffle_schedule(ACL_TABLE, [1.5, 3.5], seed=2)
            )
            generation = workload.pipeline.generation
            driver = ShardedSimulator(
                workload.pipeline,
                gigaflow_factory,
                sim_config(
                    churn=ChurnConfig(schedule=schedule),
                    telemetry=Telemetry(),
                ),
                shards=2,
                mode=mode,
                timeout=120.0,
            )
            result = driver.run(small_trace(workload))
            assert workload.pipeline.generation == generation, mode
            runs.append((
                result_fingerprint(result),
                driver.registry.to_prometheus(),
            ))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_processes_are_deterministic(self):
        first_driver, first = _run_sharded("processes")
        second_driver, second = _run_sharded("processes")
        assert result_fingerprint(first) == result_fingerprint(second)
        assert (
            first_driver.registry.to_prometheus()
            == second_driver.registry.to_prometheus()
        )

    def test_merge_conserves_shard_counters(self):
        driver, merged = _run_sharded("processes", shards=4)
        parts = driver.shard_results
        assert len(parts) == 4
        assert merged.packets == sum(r.packets for r in parts)
        assert merged.stats.hits == sum(r.stats.hits for r in parts)
        assert merged.stats.misses == sum(r.stats.misses for r in parts)
        assert merged.stats.insertions == sum(
            r.stats.insertions for r in parts
        )
        assert merged.stats.evictions == sum(
            r.stats.evictions for r in parts
        )
        assert merged.cache_probes == sum(r.cache_probes for r in parts)
        assert merged.capacity == sum(r.capacity for r in parts)
        registry = driver.registry
        lookups = registry.get("repro_cache_lookups_total").children()
        assert sum(child.value for _, child in lookups) == merged.packets
        # Occupancy is recomputed from the merged entry counts, not
        # averaged from per-shard ratios.
        ((_, occupancy),) = registry.get(
            "repro_cache_occupancy_ratio"
        ).children()
        assert occupancy.value == pytest.approx(
            merged.entry_count / merged.capacity, abs=1e-6
        )

    def test_merged_equals_equivalent_partitioned_single_run(self):
        """The merged result must equal running each shard's slice
        through the classic engine and merging by hand — sharding adds
        parallelism, never different simulation semantics."""
        driver, merged = _run_sharded("processes", shards=2)
        workload = small_workload()
        trace = small_trace(workload)
        by_hand = []
        for sid, part in enumerate(split_trace(trace, 2)):
            simulator = VSwitchSimulator(
                workload.pipeline,
                gigaflow_factory(_context(2, sid)),
                sim_config(telemetry=Telemetry()),
            )
            by_hand.append(simulator.run(part))
        manual = SimResult.merge(by_hand)
        assert result_fingerprint(merged) == result_fingerprint(manual)

    def test_timings_record_every_shard(self):
        driver, _merged = _run_sharded("processes", shards=2)
        assert [t["shard"] for t in driver.shard_timings] == [0, 1]
        for timing in driver.shard_timings:
            assert timing["cpu_seconds"] >= 0.0
            assert timing["wall_seconds"] > 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ShardedSimulator(None, gigaflow_factory, mode="threads")


# ---------------------------------------------------------------------------
# Loud failure: crashes, exceptions, timeouts


def _failing_factory(context):
    if context.index == 1:
        raise RuntimeError("boom in shard 1")
    return gigaflow_factory(context)


def _exiting_factory(context):
    if context.index == 1:
        os._exit(13)
    return gigaflow_factory(context)


def _sleeping_factory(context):
    if context.index == 1:
        time.sleep(60.0)
    return gigaflow_factory(context)


class TestWorkerFailures:
    def _driver(self, factory, timeout=60.0, mode="processes"):
        workload = small_workload()
        driver = ShardedSimulator(
            workload.pipeline,
            factory,
            sim_config(),
            shards=2,
            mode=mode,
            timeout=timeout,
        )
        return driver, small_trace(workload)

    def test_worker_exception_surfaces_shard_id(self):
        driver, trace = self._driver(_failing_factory)
        with pytest.raises(PartError) as excinfo:
            driver.run(trace)
        assert excinfo.value.part == "shard1"
        assert "boom in shard 1" in str(excinfo.value)

    def test_inline_exception_names_the_shard(self):
        """Inline, the shard's exception is wrapped as in processes
        mode: named, with the shard that ran before it as partial."""
        driver, trace = self._driver(_failing_factory, mode="inline")
        with pytest.raises(RuntimeError, match="boom in shard 1") as excinfo:
            driver.run(trace)
        assert excinfo.value.part == "shard1"
        assert str(excinfo.value).startswith("shard1: RuntimeError: ")
        assert list(excinfo.value.partial) == ["shard0"]
        assert excinfo.value.partial["shard0"].packets > 0

    def test_hard_crash_is_detected_not_hung(self):
        driver, trace = self._driver(_exiting_factory)
        start = time.monotonic()
        with pytest.raises(PartError) as excinfo:
            driver.run(trace)
        assert excinfo.value.part == "shard1"
        assert "exit code" in str(excinfo.value)
        # Detection is prompt (liveness polling), not a timeout path.
        assert time.monotonic() - start < 30.0

    def test_crash_error_carries_partial_results(self):
        driver, trace = self._driver(_failing_factory)
        with pytest.raises(PartError) as excinfo:
            driver.run(trace)
        partial = excinfo.value.partial
        # Shard 0 may or may not have finished before the error won the
        # race; whatever did finish must be well-formed SimResults.
        for name, result in partial.items():
            assert name != "shard1"
            assert result.packets > 0

    def test_timeout_raises_with_pending_shards(self):
        driver, trace = self._driver(_sleeping_factory, timeout=3.0)
        with pytest.raises(ShardTimeoutError) as excinfo:
            driver.run(trace)
        assert "shard1" in excinfo.value.pending


# ---------------------------------------------------------------------------
# SimResult.merge unit semantics


class TestSimResultMerge:
    def _result(self, **overrides):
        workload = small_workload()
        simulator = VSwitchSimulator(
            workload.pipeline, gigaflow_factory(_context(1)), sim_config()
        )
        return simulator.run(small_trace(workload))

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            SimResult.merge([])

    def test_merge_single_returns_identity(self):
        result = self._result()
        assert SimResult.merge([result]) is result

    def test_merge_mixed_systems_raises(self):
        result = self._result()
        other = dataclasses.replace(result, system="megaflow")
        with pytest.raises(ValueError, match="different systems"):
            SimResult.merge([result, other])

    def test_series_window_mismatch_raises(self):
        narrow = TimeSeries(window=5.0)
        wide = TimeSeries(window=10.0)
        with pytest.raises(ValueError, match="window"):
            wide.merge_from(narrow)

    def test_weighted_means_recombine(self):
        result = self._result()
        merged = SimResult.merge([result, result])
        assert merged.packets == 2 * result.packets
        assert merged.avg_latency_us == pytest.approx(
            result.avg_latency_us
        )
        assert merged.avg_miss_cost_us == pytest.approx(
            result.avg_miss_cost_us
        )
        assert merged.sharing == pytest.approx(result.sharing)
        assert merged.hit_rate == pytest.approx(result.hit_rate)

    def test_series_interleaves(self):
        result = self._result()
        merged = SimResult.merge([result, result])
        own = dict(result.series.buckets())
        for start, rate in merged.series.buckets():
            assert rate == pytest.approx(own[start])

    # -- peak_entries bound semantics (the one lossy merge field) ----------

    def test_merged_peak_is_labelled_upper_bound(self):
        result = self._result()
        assert result.peak_entries_exact
        assert result.peak_entries_per_shard is None
        assert f"peak_entries={result.peak_entries}" in result.summary()

        merged = SimResult.merge([result, result])
        assert not merged.peak_entries_exact
        assert merged.peak_entries_per_shard == (
            result.peak_entries, result.peak_entries
        )
        assert merged.peak_entries == 2 * result.peak_entries
        assert f"peak_entries<={merged.peak_entries}" in merged.summary()

    def test_nested_merge_flattens_per_shard_peaks(self):
        result = self._result()
        inner = SimResult.merge([result, result])
        outer = SimResult.merge([inner, result])
        # Associative: merge(merge(a, b), c) keeps three exact peaks,
        # not (bound-of-two, peak) — so no information is lost however
        # the fold is bracketed.
        assert outer.peak_entries_per_shard == (
            result.peak_entries,
        ) * 3
        assert outer.peak_entries == sum(outer.peak_entries_per_shard)

    def test_sharded_run_reports_per_shard_peaks(self):
        workload = small_workload()
        driver = ShardedSimulator(
            workload.pipeline,
            gigaflow_factory,
            sim_config(),
            shards=2,
            mode="inline",
        )
        merged = driver.run(small_trace(workload))
        assert not merged.peak_entries_exact
        assert merged.peak_entries_per_shard == tuple(
            part.peak_entries for part in driver.shard_results
        )
        assert merged.peak_entries == sum(merged.peak_entries_per_shard)
