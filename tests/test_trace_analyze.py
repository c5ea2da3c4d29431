"""Tests for the low-overhead tracer rework and the flow-level trace
analyzer (``repro trace``).

Pinned contracts, in order:

* **Tracer internals** — the per-event-type enable mask, buffered sink
  flushes, sink ownership (path-opened vs caller-owned IO), idempotent
  ``close()``, the context manager, and the exact-capacity wraparound
  boundary.
* **One outcome event per packet** — with the fast path on, every
  packet records exactly one of ``lookup_hit`` / ``lookup_miss`` /
  ``fastpath_replay``.
* **Fast-path delta-fold** — replay/invalidation *metrics* are exact
  with tracing disabled, even though the per-event hooks never run.
* **Analyzer goldens** — a synthetic event stream folds into a fully
  deterministic report (ordering, tie-breaks, pathological naming,
  the reordering suggestion), and a live ring analyzes identically to
  its JSONL sink.
* **CLI** — ``repro trace`` renders text and JSON from a sink file.
* **Sharded sinks** — a path-opened parent sink fans out to
  ``.shard<N>`` files whose event counts fold into the merged summary.
"""

import json

import pytest

from repro.obs import (
    EV_FASTPATH_REPLAY,
    EV_LOOKUP_HIT,
    EV_LOOKUP_MISS,
    EV_LTM_PROBE,
    EV_SWEEP,
    Telemetry,
    Tracer,
    analyze_events,
    analyze_jsonl,
    analyze_tracer,
    load_jsonl,
    render_text,
)
from repro.cli import main
from repro.sim import (
    GigaflowSystem,
    ShardedSimulator,
    SimConfig,
    VSwitchSimulator,
)

from conftest import seeded_trace, seeded_workload


def small_workload(seed=11):
    return seeded_workload(n_flows=200, seed=seed)


def small_trace(workload, seed=3):
    return seeded_trace(workload, mean_flow_size=32.0, seed=seed)


def traced_run(tracing=True, sink=None, capacity=1 << 18, events=None):
    workload = small_workload()
    telemetry = Telemetry(
        trace_capacity=capacity,
        tracing=tracing,
        trace_sink=sink,
        trace_events=events,
    )
    simulator = VSwitchSimulator(
        workload.pipeline,
        GigaflowSystem(num_tables=4, table_capacity=100),
        SimConfig(
            max_idle=2.0, sweep_interval=1.0, fast_path=True,
            telemetry=telemetry,
        ),
    )
    result = simulator.run(small_trace(workload))
    return result, telemetry


# ---------------------------------------------------------------------------
# Tracer internals


class TestTracerMask:
    def test_set_events_filters_emission(self):
        tracer = Tracer(capacity=16)
        tracer.set_events([EV_LTM_PROBE])
        tracer.emit(0.0, EV_LOOKUP_HIT, "c", 0xA, 1, 1)
        tracer.emit(0.0, EV_LTM_PROBE, "c", 0, 0, 1, True)
        assert tracer.emitted == 1
        assert [e.event for e in tracer.events()] == [EV_LTM_PROBE]
        assert tracer.wants(EV_LTM_PROBE)
        assert not tracer.wants(EV_LOOKUP_HIT)

    def test_set_events_none_restores_everything(self):
        tracer = Tracer(capacity=16, events=[EV_LTM_PROBE])
        tracer.set_events(None)
        tracer.emit(0.0, EV_LOOKUP_HIT, "c", 0xA, 1, 1)
        assert tracer.emitted == 1
        assert tracer.wants(EV_LOOKUP_HIT)

    def test_masked_run_records_only_selected_events(self):
        _result, telemetry = traced_run(events=[EV_LTM_PROBE])
        kinds = {e.event for e in telemetry.tracer.events()}
        assert kinds == {EV_LTM_PROBE}
        assert telemetry.tracer.emitted > 0


class TestTracerSink:
    def test_exact_capacity_boundary(self):
        tracer = Tracer(capacity=4)
        for i in range(4):
            tracer.emit(float(i), EV_SWEEP, "c", i)
        assert len(tracer.events()) == 4
        assert tracer.dropped == 0
        tracer.emit(4.0, EV_SWEEP, "c", 4)
        assert len(tracer.events()) == 4
        assert tracer.dropped == 1
        assert tracer.emitted == 5

    def test_sink_writes_are_buffered_until_flush(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(capacity=64, sink=str(path))
        tracer.emit(0.0, EV_SWEEP, "c", 0)
        assert path.read_text() == ""
        tracer.flush()
        assert len(path.read_text().splitlines()) == 1
        tracer.close()

    def test_close_is_idempotent_and_owned(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(capacity=8, sink=str(path))
        assert tracer.sink_path == str(path)
        tracer.emit(0.0, EV_SWEEP, "c", 0)
        tracer.close()
        tracer.close()
        assert len(path.read_text().splitlines()) == 1

    def test_caller_owned_io_not_closed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            tracer = Tracer(capacity=8, sink=handle)
            assert tracer.sink_path is None
            tracer.emit(0.0, EV_SWEEP, "c", 0)
            tracer.close()
            assert not handle.closed

    def test_context_manager_flushes_on_exit(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(capacity=8, sink=str(path)) as tracer:
            tracer.emit(0.0, EV_SWEEP, "c", 7)
        record = json.loads(path.read_text())
        assert record["evicted"] == 7


# ---------------------------------------------------------------------------
# Emission-site semantics


class TestEmissionSemantics:
    def test_one_outcome_event_per_packet(self):
        result, telemetry = traced_run()
        outcomes = [
            e for e in telemetry.tracer.events()
            if e.event in (
                EV_LOOKUP_HIT, EV_LOOKUP_MISS, EV_FASTPATH_REPLAY
            )
        ]
        assert telemetry.tracer.dropped == 0
        assert len(outcomes) == result.packets

    def test_fastpath_metrics_exact_without_tracing(self):
        _, traced_tel = traced_run(tracing=True)
        _, telemetry = traced_run(tracing=False)
        assert telemetry.tracer.emitted == 0

        def fastpath(hub):
            return {
                name: [child.value for _, child in hub.registry.get(
                    name
                ).children()]
                for name in (
                    "repro_fastpath_replays_total",
                    "repro_fastpath_revalidations_total",
                    "repro_fastpath_invalidations_total",
                )
            }

        counts = fastpath(telemetry)
        assert counts == fastpath(traced_tel)
        replays = sum(
            1 for e in traced_tel.tracer.events()
            if e.event == EV_FASTPATH_REPLAY
        )
        assert counts["repro_fastpath_replays_total"] == [replays]


# ---------------------------------------------------------------------------
# Analyzer


GOLDEN_EVENTS = [
    # gf1 out-resolves gf0 → inversion at walk position 0.
    {"ts": 0.0, "event": "ltm_probe", "cache": "g", "table": 0,
     "matched": False},
    {"ts": 0.1, "event": "ltm_probe", "cache": "g", "table": 0,
     "matched": False},
    {"ts": 0.2, "event": "ltm_probe", "cache": "g", "table": 0,
     "matched": True},
    {"ts": 0.3, "event": "ltm_probe", "cache": "g", "table": 1,
     "matched": True},
    {"ts": 0.4, "event": "ltm_probe", "cache": "g", "table": 1,
     "matched": True},
    {"ts": 1.0, "event": "lookup_miss", "cache": "g", "flow": "aa",
     "tables_hit": 3, "groups_probed": 6},
    {"ts": 1.1, "event": "lookup_hit", "cache": "g", "flow": "aa",
     "tables_hit": 3, "groups_probed": 5},
    {"ts": 1.2, "event": "lookup_hit", "cache": "g", "flow": "bb",
     "tables_hit": 1, "groups_probed": 1},
    {"ts": 1.3, "event": "fastpath_replay", "cache": "g", "flow": "bb",
     "tables_hit": 1, "groups_probed": 1},
    {"ts": 2.0, "event": "fastpath_invalidate", "cache": "g",
     "flow": "cc"},
    {"ts": 2.1, "event": "fastpath_invalidate", "cache": "g",
     "flow": "cc"},
]


class TestAnalyzer:
    def test_golden_report(self):
        report = analyze_events(iter(GOLDEN_EVENTS), top=3)
        assert report["events"] == len(GOLDEN_EVENTS)
        assert list(report["by_event"].items())[0] == ("ltm_probe", 5)
        assert report["flows"]["count"] == 3
        assert report["flows"]["chain_depth"] == {
            "count": 4, "mean": 2.0, "max": 3, "p50": 1, "p95": 3,
        }
        deepest = report["pathological"]["deepest_chains"][0]
        assert deepest["flow"] == "aa"
        assert deepest["max_depth"] == 3
        assert deepest["misses"] == 1
        invalidated = report["pathological"]["repeat_invalidations"][0]
        assert invalidated == {
            "flow": "cc", "invalidations": 2, "packets": 0,
        }
        tables = {row["table"]: row for row in report["tables"]}
        assert tables[0]["hit_rate"] == round(1 / 3, 4)
        assert tables[1]["hit_rate"] == 1.0
        reorder = report["reorder_suggestion"]
        assert reorder["current_order"] == [0, 1]
        assert reorder["ranked_by_hit_rate"] == [1, 0]
        assert "table gf1" in reorder["suggestion"]
        assert "walk position 0" in reorder["suggestion"]

    def test_report_is_deterministic(self):
        first = analyze_events(iter(GOLDEN_EVENTS))
        second = analyze_events(iter(GOLDEN_EVENTS))
        assert json.dumps(first) == json.dumps(second)

    def test_optimal_order_yields_no_suggestion(self):
        events = [
            {"event": "ltm_probe", "cache": "g", "table": 0,
             "matched": True},
            {"event": "ltm_probe", "cache": "g", "table": 1,
             "matched": False},
        ]
        reorder = analyze_events(iter(events))["reorder_suggestion"]
        assert reorder["suggestion"] is None
        assert reorder["current_order"] == reorder["ranked_by_hit_rate"]

    def test_render_text_sections(self):
        text = render_text(analyze_events(iter(GOLDEN_EVENTS)))
        assert "== event counts ==" in text
        assert "== ltm tables ==" in text
        assert "== deepest chains ==" in text
        assert "suggestion: table gf1" in text

    def test_live_ring_matches_jsonl_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _result, telemetry = traced_run(sink=str(path))
        telemetry.tracer.close()
        from_ring = analyze_tracer(telemetry.tracer)
        from_file = analyze_jsonl(str(path))
        assert from_ring["dropped"] == 0
        from_ring["dropped"] = from_file["dropped"]
        assert from_ring == from_file
        assert from_file["events"] == telemetry.tracer.emitted

    def test_load_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "ev", "ts": 0.0}\n\n')
        assert len(list(load_jsonl(str(path)))) == 1


# ---------------------------------------------------------------------------
# CLI


class TestTraceCli:
    @pytest.fixture()
    def sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _result, telemetry = traced_run(sink=str(path))
        telemetry.tracer.close()
        return str(path)

    def test_trace_text_output(self, sink, capsys):
        assert main(["trace", "--trace-in", sink]) == 0
        out = capsys.readouterr().out
        assert "== event counts ==" in out
        assert "== pipeline order ==" in out

    def test_trace_json_output(self, sink, capsys):
        assert main(["trace", "--trace-in", sink, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["events"] > 0
        assert "reorder_suggestion" in report

    def test_trace_out_file(self, sink, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main([
            "trace", "--trace-in", sink, "--format", "json",
            "--out", str(out_path),
        ]) == 0
        report = json.loads(out_path.read_text())
        assert report["events"] > 0


# ---------------------------------------------------------------------------
# Sharded sinks


def _gigaflow_factory(context):
    return GigaflowSystem(
        num_tables=4, table_capacity=max(8, 400 // context.parts)
    )


class TestShardedTraceSinks:
    @pytest.mark.parametrize("mode", ["inline", "processes"])
    def test_shard_sinks_written_and_folded(self, tmp_path, mode):
        path = tmp_path / "trace.jsonl"
        workload = small_workload()
        telemetry = Telemetry(tracing=True, trace_sink=str(path))
        config = SimConfig(
            max_idle=2.0, sweep_interval=1.0, fast_path=True,
            telemetry=telemetry,
        )
        driver = ShardedSimulator(
            workload.pipeline, _gigaflow_factory, config, shards=2, mode=mode
        )
        result = driver.run(small_trace(workload))
        shard_lines = []
        for shard_id in range(2):
            shard_path = tmp_path / f"trace.jsonl.shard{shard_id}"
            assert shard_path.exists()
            lines = [
                json.loads(line)
                for line in shard_path.read_text().splitlines()
            ]
            assert lines, f"shard {shard_id} sink is empty"
            shard_lines.append(lines)
        # One lookup outcome per packet, across the two sinks.
        outcomes = (EV_LOOKUP_HIT, EV_LOOKUP_MISS, EV_FASTPATH_REPLAY)
        assert sum(
            line["event"] in outcomes
            for lines in shard_lines for line in lines
        ) == result.packets

    def test_shard_sinks_mirror_event_mask(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        workload = small_workload()
        telemetry = Telemetry(
            tracing=True, trace_sink=str(path),
            trace_events=[EV_LTM_PROBE],
        )
        config = SimConfig(
            max_idle=2.0, sweep_interval=1.0, fast_path=True,
            telemetry=telemetry,
        )
        driver = ShardedSimulator(
            workload.pipeline, _gigaflow_factory, config, shards=2,
            mode="inline",
        )
        driver.run(small_trace(workload))
        for shard_id in range(2):
            shard_path = tmp_path / f"trace.jsonl.shard{shard_id}"
            kinds = {
                json.loads(line)["event"]
                for line in shard_path.read_text().splitlines()
            }
            assert kinds == {EV_LTM_PROBE}

    def test_io_sink_stays_parent_only(self, tmp_path):
        workload = small_workload()
        with open(tmp_path / "parent.jsonl", "w", encoding="utf-8") as h:
            telemetry = Telemetry(tracing=True, trace_sink=h)
            config = SimConfig(
                max_idle=2.0, sweep_interval=1.0, fast_path=True,
                telemetry=telemetry,
            )
            driver = ShardedSimulator(
                workload.pipeline, _gigaflow_factory, config, shards=2,
                mode="inline",
            )
            driver.run(small_trace(workload))
        assert not list(tmp_path.glob("*.shard*"))
