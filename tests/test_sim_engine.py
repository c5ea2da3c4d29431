"""Tests for the end-to-end simulation engine."""

from math import inf, nextafter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.coverage import coverage
from repro.obs import Telemetry
from repro.pipeline import PSC
from repro.sim import (
    ChurnConfig,
    GigaflowSystem,
    MegaflowSystem,
    SimConfig,
    VSwitchSimulator,
)
from repro.sim.results import TimeSeries
from repro.workload import ChurnSchedule, build_workload

N_FLOWS = 300


@pytest.fixture(scope="module")
def workload():
    return build_workload(PSC, n_flows=N_FLOWS, locality="high", seed=11)


def fresh():
    return build_workload(PSC, n_flows=N_FLOWS, locality="high", seed=11)


class TestSimulatorBasics:
    def test_every_packet_accounted(self, workload):
        w = fresh()
        trace = w.trace(seed=1)
        result = VSwitchSimulator(w.pipeline, MegaflowSystem(capacity=1000)).run(trace)
        assert result.packets == len(trace)
        assert result.stats.hits + result.stats.misses == result.packets

    def test_first_packet_of_each_flow_misses_cold(self):
        w = fresh()
        result = VSwitchSimulator(
            w.pipeline, MegaflowSystem(capacity=10**6)
        ).run(w.trace(seed=1))
        # Compulsory misses only: exactly one per flow class.
        assert result.misses == N_FLOWS

    def test_gigaflow_pre_covers_some_flows(self):
        w = fresh()
        result = VSwitchSimulator(
            w.pipeline, GigaflowSystem(num_tables=4, table_capacity=10**6)
        ).run(w.trace(seed=1))
        # Cross-products cover flows never sent to the slow path.
        assert result.misses < N_FLOWS

    def test_latency_accounting(self):
        w = fresh()
        result = VSwitchSimulator(
            w.pipeline, MegaflowSystem(capacity=10**6)
        ).run(w.trace(seed=1))
        assert result.avg_latency_us > 8.62  # at least the hit latency
        assert result.avg_miss_cost_us > result.avg_latency_us

    def test_cpu_breakdown_megaflow_has_no_partition_cost(self):
        w = fresh()
        result = VSwitchSimulator(
            w.pipeline, MegaflowSystem(capacity=10**6)
        ).run(w.trace(seed=1))
        assert result.cpu.partition_cycles == 0
        assert result.cpu.pipeline_cycles > 0

    def test_cpu_breakdown_gigaflow_has_partition_cost(self):
        w = fresh()
        result = VSwitchSimulator(
            w.pipeline, GigaflowSystem(num_tables=4, table_capacity=10**6)
        ).run(w.trace(seed=1))
        assert result.cpu.partition_cycles > 0
        assert result.cpu.rulegen_cycles > 0

    def test_peak_entries_tracked(self):
        w = fresh()
        config = SimConfig(max_idle=5.0, sweep_interval=2.0)
        result = VSwitchSimulator(
            w.pipeline, MegaflowSystem(capacity=10**6), config
        ).run(w.trace(seed=1))
        assert result.peak_entries >= result.entry_count
        assert result.peak_entries > 0

    def test_idle_sweep_evicts(self):
        w = fresh()
        config = SimConfig(max_idle=2.0, sweep_interval=1.0)
        system = MegaflowSystem(capacity=10**6)
        VSwitchSimulator(w.pipeline, system, config).run(w.trace(seed=1))
        assert system.cache.stats.evictions > 0

    def test_summary_format(self):
        w = fresh()
        result = VSwitchSimulator(
            w.pipeline, MegaflowSystem(capacity=100)
        ).run(w.trace(seed=1))
        text = result.summary()
        assert "megaflow" in text
        assert "hit_rate" in text


class TestKernelCadence:
    """The kernel's one ``deadline``: sweeps, snapshots and churn each
    fire once per elapsed interval, at their scheduled times, in that
    order — whatever the packet timestamps do."""

    @staticmethod
    def spied_kernel():
        w = fresh()
        telemetry = Telemetry(tracing=True)
        config = SimConfig(
            max_idle=2.0,
            sweep_interval=1.0,
            telemetry=telemetry,
            churn=ChurnConfig(schedule=ChurnSchedule([])),
        )
        simulator = VSwitchSimulator(w.pipeline, GigaflowSystem(), config)
        kernel = simulator.kernel()
        calls = []

        def spy(owner, name, label, time_arg):
            original = getattr(owner, name)

            def recorded(*args):
                calls.append((label, args[time_arg]))
                return original(*args)

            setattr(owner, name, recorded)

        spy(kernel.cache, "evict_idle", "sweep", 0)
        spy(telemetry, "sample", "snapshot", 1)
        spy(kernel.churn, "advance", "churn", 0)
        return kernel, calls, w.pilots[0].flow, telemetry

    def test_jump_fires_every_elapsed_deadline_in_order(self):
        kernel, calls, flow, telemetry = self.spied_kernel()
        kernel.run([(0.25, flow)])
        assert calls == []
        kernel.run([(3.5, flow)])
        assert calls == [
            ("sweep", 1.0), ("sweep", 2.0), ("sweep", 3.0),
            ("snapshot", 1.0), ("snapshot", 2.0), ("snapshot", 3.0),
            ("churn", 1.0), ("churn", 2.0), ("churn", 3.0),
        ]
        assert kernel.deadline == 4.0
        # The t=0.25 install went idle at the 3.0 sweep, and its evict
        # event says 3.0 — not the time of whichever packet came next.
        idle = [
            event for event in telemetry.tracer.iter_dicts()
            if event["event"] == "evict" and event["reason"] == "idle"
        ]
        assert idle and all(event["ts"] == 3.0 for event in idle)

    def test_regressing_timestamp_fires_nothing_twice_and_skips_nothing(
        self,
    ):
        kernel, calls, flow, _ = self.spied_kernel()
        kernel.run([(1.5, flow)])
        fired = list(calls)
        assert fired == [("sweep", 1.0), ("snapshot", 1.0), ("churn", 1.0)]
        # A segment seam: time steps back across a fired deadline.
        kernel.run([(0.75, flow), (0.9, flow)])
        assert calls == fired
        assert kernel.now == 0.9
        # Landing exactly on the next deadline fires it, once.
        kernel.run([(2.0, flow)])
        assert calls[len(fired):] == [
            ("sweep", 2.0), ("snapshot", 2.0), ("churn", 2.0),
        ]
        assert kernel.packet_count == 4


class TestTimeSeries:
    def test_bucketing(self):
        series = TimeSeries(window=10.0)
        series.record(1.0, hit=True)
        series.record(2.0, hit=False)
        series.record(15.0, hit=True)
        buckets = series.buckets()
        assert buckets[0] == (0.0, 0.5)
        assert buckets[1] == (10.0, 1.0)

    def test_hit_rate_between(self):
        series = TimeSeries(window=10.0)
        for t in (1.0, 11.0, 21.0):
            series.record(t, hit=True)
        series.record(25.0, hit=False)
        assert series.hit_rate_between(0, 20) == 1.0
        assert series.hit_rate_between(20, 30) == 0.5

    def test_hit_rate_between_overlap_semantics(self):
        # Regression: the old implementation required the bucket *start*
        # to fall inside [start, stop), so a query window contained
        # entirely within one bucket (e.g. [12, 18) inside [10, 20))
        # returned 0.0 instead of that bucket's rate.
        series = TimeSeries(window=10.0)
        series.record(11.0, hit=True)
        series.record(12.0, hit=True)
        series.record(13.0, hit=False)
        assert series.hit_rate_between(12, 18) == pytest.approx(2 / 3)
        # A bucket straddling `stop` is counted in full...
        series.record(21.0, hit=False)
        assert series.hit_rate_between(15, 22) == pytest.approx(2 / 4)
        # ...but a bucket starting exactly at `stop` is excluded,
        # as is one ending exactly at `start`.
        assert series.hit_rate_between(15, 20) == pytest.approx(2 / 3)
        assert series.hit_rate_between(20, 25) == pytest.approx(0.0)

    def test_hit_rate_between_degenerate_span(self):
        series = TimeSeries(window=10.0)
        series.record(1.0, hit=True)
        assert series.hit_rate_between(5, 5) == 0.0
        assert series.hit_rate_between(8, 2) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        window=st.floats(1e-3, 1e3),
        now=st.floats(0.0, 1e7),
    )
    def test_a_span_holds_exactly_its_buckets_times(self, window, now):
        series = TimeSeries(window)
        bucket = int(now // window)
        start, end = series.span(bucket)
        assert start <= now < end
        for t in (start, end, nextafter(start, -inf), nextafter(end, -inf)):
            assert (int(t // window) == bucket) == (start <= t < end)

    def test_the_kernel_files_each_hit_where_record_would(self):
        """The packet loop counts hits per bucket span instead of
        filing each one: a traced run's lookup outcomes, recorded one
        by one, give the same series (0.1 s windows: edges that are
        not floats)."""
        w = fresh()
        telemetry = Telemetry(
            tracing=True, trace_capacity=1 << 20,
            trace_events=("lookup_hit", "lookup_miss", "fastpath_replay"),
        )
        result = VSwitchSimulator(
            w.pipeline,
            GigaflowSystem(num_tables=4, table_capacity=100),
            SimConfig(max_idle=2.0, window=0.1, telemetry=telemetry),
        ).run(w.trace(seed=1))
        reference = TimeSeries(window=0.1)
        events = telemetry.tracer.events()
        assert len(events) == result.packets
        for event in events:
            reference.record(event.ts, hit=event.event != "lookup_miss")
        assert dict(result.series._hits) == dict(reference._hits)
        assert dict(result.series._misses) == dict(reference._misses)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            TimeSeries(window=0)


class TestSystems:
    def test_gigaflow_coverage_exposed(self):
        w = fresh()
        system = GigaflowSystem(num_tables=4, table_capacity=10**6)
        result = VSwitchSimulator(w.pipeline, system).run(w.trace(seed=1))
        # Every flow that hit without a miss of its own was covered by
        # chains that other flows installed.
        assert coverage(system.cache) >= N_FLOWS - result.misses
        assert result.sharing is not None and result.sharing >= 1.0

    def test_megaflow_coverage_is_entries(self):
        w = fresh()
        system = MegaflowSystem(capacity=10**6)
        result = VSwitchSimulator(w.pipeline, system).run(w.trace(seed=1))
        # A Megaflow entry covers exactly one traversal class, so its
        # coverage (Table 2) is the entry count the run reports.
        assert system.cache.entry_count() == result.entry_count
        assert result.sharing is None
