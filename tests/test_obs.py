"""Tests for the telemetry subsystem (``repro.obs``).

Covers the metric registry's export round-trips, the tracer's ring
buffer, the zero-overhead disabled path, the snapshot sampler, and —
most importantly — a differential proof that attaching telemetry never
changes a single :class:`~repro.sim.results.SimResult` field.
"""

import json
import math

import pytest

from repro.obs import (
    EV_LOOKUP_HIT,
    EV_LTM_PROBE,
    EV_SWEEP,
    Histogram,
    MetricsRegistry,
    Telemetry,
    Tracer,
)
from repro.pipeline import PSC
from repro.sim import (
    AdaptiveGigaflowSystem,
    GigaflowSystem,
    HierarchySystem,
    MegaflowSystem,
    SimConfig,
    VSwitchSimulator,
)
from repro.workload import TraceProfile, build_workload
from prometheus_text import parse_prometheus_text

N_FLOWS = 200


def small_workload():
    return build_workload(PSC, n_flows=N_FLOWS, locality="high", seed=11)


def small_trace(workload):
    return workload.trace(
        profile=TraceProfile(mean_flow_size=32.0, duration=6.0), seed=3
    )


class TestMetricPrimitives:
    def test_counter_rejects_decrement(self):
        registry = MetricsRegistry()
        child = registry.counter("c_total", "help").labels()
        child.inc(3)
        assert child.value == 3
        with pytest.raises(ValueError):
            child.inc(-1)

    def test_histogram_buckets_and_cumulative(self):
        h = Histogram((1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 7.0, 99.0):
            h.observe(v)
        # counts are stored non-cumulatively (+ overflow slot)...
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(110.5)
        # ...and exported cumulatively, +Inf last.
        assert h.cumulative() == [
            (1.0, 2), (5.0, 3), (10.0, 4), (math.inf, 5),
        ]

    def test_histogram_requires_sorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram((5.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(())

    def test_label_arity_enforced(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", "help", ("a", "b"))
        with pytest.raises(ValueError):
            family.labels("only-one")

    def test_signature_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dup_total", "help", ("a",))
        # Same signature: idempotent re-registration.
        again = registry.counter("dup_total", "help", ("a",))
        assert again is registry.get("dup_total")
        with pytest.raises(ValueError):
            registry.gauge("dup_total", "help", ("a",))
        with pytest.raises(ValueError):
            registry.counter("dup_total", "help", ("a", "b"))


class TestPrometheusExport:
    def build(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_lookups_total", "Lookups.", ("cache", "result")
        ).labels("gf", "hit").inc(41)
        registry.get("repro_lookups_total").labels("gf", "miss").inc(1)
        registry.gauge("repro_occupancy", "Occ.", ("cache",)).labels(
            "gf"
        ).set(0.25)
        hist = registry.histogram(
            "repro_depth", "Depth.", (1.0, 2.0), ("cache",)
        ).labels("gf")
        hist.observe(1)
        hist.observe(4)
        return registry

    def test_text_round_trip(self):
        text = self.build().to_prometheus()
        parsed = parse_prometheus_text(text)
        assert (
            parsed["repro_lookups_total"][
                'repro_lookups_total{cache="gf",result="hit"}'
            ]
            == 41
        )
        assert (
            parsed["repro_occupancy"]['repro_occupancy{cache="gf"}'] == 0.25
        )
        buckets = parsed["repro_depth_bucket"]
        assert buckets['repro_depth_bucket{cache="gf",le="1"}'] == 1
        assert buckets['repro_depth_bucket{cache="gf",le="2"}'] == 1
        assert buckets['repro_depth_bucket{cache="gf",le="+Inf"}'] == 2
        assert parsed["repro_depth_count"]['repro_depth_count{cache="gf"}'] == 2
        assert parsed["repro_depth_sum"]['repro_depth_sum{cache="gf"}'] == 5

    def test_help_and_type_lines(self):
        text = self.build().to_prometheus()
        assert "# HELP repro_lookups_total Lookups." in text
        assert "# TYPE repro_lookups_total counter" in text
        assert "# TYPE repro_occupancy gauge" in text
        assert "# TYPE repro_depth histogram" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("esc_total", "h", ("v",)).labels(
            'a"b\\c\nd'
        ).inc()
        text = registry.to_prometheus()
        assert 'esc_total{v="a\\"b\\\\c\\nd"} 1' in text

    def test_json_round_trip_lossless(self):
        registry = self.build()
        payload = json.loads(json.dumps(registry.to_json()))
        rebuilt = MetricsRegistry.from_json(payload)
        assert rebuilt.to_prometheus() == registry.to_prometheus()
        assert rebuilt.to_json() == registry.to_json()


class TestTracer:
    def test_ring_wraparound(self):
        tracer = Tracer(capacity=8)
        for i in range(20):
            tracer.emit(float(i), EV_SWEEP, "c", i)
        assert tracer.emitted == 20
        assert tracer.dropped == 12
        events = tracer.events()
        assert len(events) == 8
        # Oldest events were expelled; the ring keeps the newest 8.
        assert [e.fields["evicted"] for e in events] == list(range(12, 20))

    def test_drain_clears_but_keeps_counters(self):
        tracer = Tracer(capacity=4)
        tracer.emit(0.0, EV_SWEEP, "c", 0)
        assert len(tracer.drain()) == 1
        assert len(tracer) == 0
        assert tracer.emitted == 1

    def test_disabled_tracer_emits_nothing(self):
        tracer = Tracer(capacity=4, enabled=False)
        tracer.emit(0.0, EV_SWEEP, "c", 1)
        assert tracer.emitted == 0
        assert tracer.events() == []

    def test_jsonl_sink_sees_past_wraparound(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(capacity=2, sink=str(path))
        for i in range(5):
            tracer.emit(float(i), EV_SWEEP, "c", i)
        tracer.close()
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert [rec["evicted"] for rec in lines] == [0, 1, 2, 3, 4]
        assert lines[0]["event"] == "sweep"
        assert lines[0]["ts"] == 0.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


def run_system(system, telemetry=None, fast_path=True):
    w = small_workload()
    config = SimConfig(
        max_idle=2.0,
        sweep_interval=1.0,
        fast_path=fast_path,
        telemetry=telemetry,
    )
    simulator = VSwitchSimulator(w.pipeline, system, config)
    return simulator.run(small_trace(w))


def result_fingerprint(result):
    """Every SimResult field.  ``cpu`` ends with the slow-path
    invocation count, which is the miss count: the golden cost tables
    recorded it when ``CpuBreakdown`` still kept its own copy."""
    return {
        "system": result.system,
        "stats": (
            result.stats.hits,
            result.stats.misses,
            result.stats.insertions,
            result.stats.rejected,
            result.stats.evictions,
        ),
        "packets": result.packets,
        "entry_count": result.entry_count,
        "peak_entries": result.peak_entries,
        "capacity": result.capacity,
        "avg_latency_us": result.avg_latency_us,
        "avg_miss_cost_us": result.avg_miss_cost_us,
        "cpu": (
            result.cpu.pipeline_cycles,
            result.cpu.partition_cycles,
            result.cpu.rulegen_cycles,
            result.stats.misses,
        ),
        "series": result.series.buckets(),
        "sharing": result.sharing,
        "cache_probes": result.cache_probes,
    }


def result_cost(result):
    """What rides on ``groups_probed``, as the golden tables pin it."""
    fingerprint = result_fingerprint(result)
    return tuple(
        fingerprint[key]
        for key in ("avg_latency_us", "avg_miss_cost_us", "cpu")
    )


SYSTEMS = {
    "megaflow": lambda: MegaflowSystem(capacity=300),
    "hierarchy": lambda: HierarchySystem(
        microflow_capacity=100, megaflow_capacity=300
    ),
    "gigaflow": lambda: GigaflowSystem(num_tables=4, table_capacity=100),
    "adaptive": lambda: AdaptiveGigaflowSystem(
        num_tables=4, table_capacity=100
    ),
}


class TestDifferential:
    """Telemetry is observation-only: results are bit-identical on/off."""

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_simresult_identical_with_telemetry(self, name):
        baseline = run_system(SYSTEMS[name]())
        telemetry = Telemetry(tracing=True)
        traced = run_system(SYSTEMS[name](), telemetry=telemetry)
        assert telemetry.snapshots  # the hub was attached and finalized
        assert result_fingerprint(baseline) == result_fingerprint(traced)

    def test_identical_with_fast_path_off(self):
        baseline = run_system(SYSTEMS["gigaflow"](), fast_path=False)
        traced = run_system(
            SYSTEMS["gigaflow"](),
            telemetry=Telemetry(tracing=True),
            fast_path=False,
        )
        assert result_fingerprint(baseline) == result_fingerprint(traced)


class TestInstrumentedRun:
    @pytest.fixture(scope="class")
    def traced(self):
        telemetry = Telemetry(tracing=True)
        result = run_system(SYSTEMS["gigaflow"](), telemetry=telemetry)
        return telemetry, result

    def test_lookup_counters_match_stats(self, traced):
        telemetry, result = traced
        lookups = telemetry.registry.get("repro_cache_lookups_total")
        hits = lookups.labels("gigaflow", "hit").value
        misses = lookups.labels("gigaflow", "miss").value
        assert hits == result.stats.hits
        assert misses == result.stats.misses
        assert hits + misses == result.packets

    def test_eviction_reasons_sum_to_stats(self, traced):
        telemetry, result = traced
        family = telemetry.registry.get("repro_cache_evictions_total")
        total = sum(child.value for _, child in family.children())
        assert total == result.stats.evictions

    def test_metrics_disabled_tracer_emits_zero_events(self):
        telemetry = Telemetry(tracing=False)
        run_system(SYSTEMS["gigaflow"](), telemetry=telemetry)
        assert telemetry.tracer.emitted == 0
        assert telemetry.tracer.events() == []
        # ...while the metric side still counted every packet.
        family = telemetry.registry.get("repro_cache_lookups_total")
        assert sum(child.value for _, child in family.children()) > 0

    def test_snapshots_taken_on_sweep_cadence(self, traced):
        telemetry, result = traced
        assert len(telemetry.snapshots) >= 2
        ((_, taken),) = telemetry.registry.get(
            "repro_snapshots_total"
        ).children()
        assert taken.value == len(telemetry.snapshots)
        for snapshot in telemetry.snapshots:
            assert 0.0 <= snapshot.occupancy <= 1.0
            assert len(snapshot.per_table) == 4
            assert snapshot.epoch_delta >= 0

    def test_trace_event_vocabulary(self, traced):
        telemetry, _ = traced
        seen = {event.event for event in telemetry.tracer.events()}
        assert EV_LTM_PROBE in seen
        assert EV_LOOKUP_HIT in seen
        # Hits dominate a high-locality trace; misses/sweeps happened too
        # even if the bounded ring no longer holds the earliest of them.
        assert telemetry.tracer.emitted > 0

    def test_ltm_probe_counters_populated(self, traced):
        telemetry, _ = traced
        family = telemetry.registry.get("repro_ltm_probes_total")
        probes = {labels: child.value for labels, child in family.children()}
        assert any(value > 0 for value in probes.values())
        tables = {labels[1] for labels in probes}
        assert tables == {"0", "1", "2", "3"}

    def test_registry_shape(self, traced):
        telemetry, _ = traced
        registry = telemetry.registry
        lookups = dict(registry.get("repro_cache_lookups_total").children())
        assert set(lookups) <= {("gigaflow", "hit"), ("gigaflow", "miss")}
        ((_, installs),) = registry.get(
            "repro_slowpath_installs_total"
        ).children()
        assert installs.value > 0
        ((_, depth),) = registry.get("repro_lookup_depth").children()
        assert depth.sum > 0
        assert telemetry.tracer.emitted > 0
        assert telemetry.tracer.dropped >= 0

    def test_prometheus_export_contains_catalog(self, traced):
        telemetry, _ = traced
        text = telemetry.registry.to_prometheus()
        for name in (
            "repro_cache_lookups_total",
            "repro_slowpath_installs_total",
            "repro_cache_evictions_total",
            "repro_ltm_probes_total",
            "repro_lookup_depth_bucket",
            "repro_fastpath_replays_total",
            "repro_cache_occupancy_ratio",
            "repro_epoch_bumps_total",
            "repro_lru_age_seconds_bucket",
            "repro_sweeps_total",
        ):
            assert name in text, name
        # The export parses cleanly.
        parsed = parse_prometheus_text(text)
        assert parsed


class TestHierarchyAndRevalidation:
    def test_hierarchy_subcaches_attached(self):
        telemetry = Telemetry()
        run_system(SYSTEMS["hierarchy"](), telemetry=telemetry)
        stats = telemetry.registry.get("repro_cache_stats")
        names = {labels[0] for labels, _ in stats.children()}
        assert "hierarchy" in names
        assert "hierarchy.microflow" in names
        assert "hierarchy.megaflow" in names

    def test_revalidation_counters(self):
        from repro.core.revalidation import IncrementalRevalidator

        w = small_workload()
        system = SYSTEMS["gigaflow"]()
        telemetry = Telemetry(tracing=True)
        config = SimConfig(telemetry=telemetry)
        VSwitchSimulator(w.pipeline, system, config).run(small_trace(w))
        IncrementalRevalidator(w.pipeline, system.cache).revalidate(now=10.0)
        family = telemetry.registry.get("repro_revalidation_checked_total")
        checked = sum(child.value for _, child in family.children())
        assert checked > 0
        verdicts = {labels[1] for labels, _ in family.children()}
        assert verdicts <= {"consistent", "evicted"}


class TestStatsCli:
    def test_parser_accepts_stats(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["stats", "psc", "--system", "megaflow", "--format", "json",
             "--flows", "50"]
        )
        assert args.command == "stats"
        assert args.system == "megaflow"
        assert args.format == "json"

    def test_stats_prom_output(self, capsys):
        from repro.cli import main

        code = main(
            ["stats", "psc", "--flows", "60", "--duration", "3",
             "--mean-flow-size", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        parsed = parse_prometheus_text(out)
        assert "repro_cache_lookups_total" in parsed
        assert "repro_snapshots_total" in parsed

    def test_stats_json_output_with_trace(self, capsys, tmp_path):
        from repro.cli import main

        sink = tmp_path / "events.jsonl"
        code = main(
            ["stats", "psc", "--flows", "60", "--duration", "3",
             "--mean-flow-size", "16", "--format", "json",
             "--trace-out", str(sink)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"metrics", "snapshots"}
        rebuilt = MetricsRegistry.from_json(doc["metrics"])
        assert "repro_cache_lookups_total" in rebuilt
        assert sink.exists() and sink.read_text().count("\n") > 0

    def test_bench_smoke_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["bench", "--smoke"])
        assert args.smoke is True
        assert args.out_dir == "."


class TestRenderTelemetry:
    def test_render_telemetry_table(self):
        from repro.report import render_telemetry

        telemetry = Telemetry(tracing=True)
        result = run_system(SYSTEMS["gigaflow"](), telemetry=telemetry)
        text = render_telemetry(telemetry)
        assert "telemetry: gigaflow" in text
        rows = dict(
            line.rsplit(None, 1) for line in text.splitlines()[3:]
        )
        assert int(rows["lookups"]) == result.stats.hits + result.stats.misses
        assert int(rows["slow-path installs"]) == result.stats.misses
        assert "fast-path replays" in rows

    def test_render_empty(self):
        from repro.report import render_telemetry

        assert render_telemetry(Telemetry()) == "(no telemetry)"
