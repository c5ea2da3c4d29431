"""Tests for loud trace-sink failure (:class:`TraceSinkError`).

The hazards pinned here:

* **Stale derived files** — the sharded and fabric fan-outs write
  ``<path>.shard<N>`` / ``<path>.<switch>`` sinks; a file left by an
  earlier run must fail the open (exclusive ``"x"`` mode), not be
  silently truncated or, worse, mixed into.
* **Unwritable destination** — an open into an invalid directory
  surfaces as :class:`TraceSinkError` naming the path.
* **Mid-run write/close failures** — wrapped with the sink path, never
  a bare ``OSError`` from deep inside ``flush``.
* **Worker attribution** — a shard whose derived sink cannot open
  fails loudly *with the shard's name*, in both inline and processes
  modes.
"""

import io
import json

import pytest

from conftest import seeded_trace, seeded_workload
from repro.net import FabricController, FabricSimulator, leaf_spine
from repro.obs import EV_SWEEP, Telemetry, TraceSinkError
from repro.obs.trace import Tracer
from repro.sim import (
    GigaflowSystem,
    PartError,
    ShardedSimulator,
    SimConfig,
)
from repro.workload import build_fabric_endpoints


def gigaflow_factory(_context):
    return GigaflowSystem(num_tables=4, table_capacity=100)


class _InstallFails(GigaflowSystem):
    """Raises from install number ``NTH`` — mid-run, between two sweeps."""

    NTH = 40

    def install(self, traversal, generation, now):
        if self.cache.stats.misses == self.NTH:
            raise RuntimeError("install failed")
        return super().install(traversal, generation, now)


def failing_where(is_failing):
    """A system factory: the failing system where ``is_failing(context)``."""
    return lambda context: (
        _InstallFails if is_failing(context) else GigaflowSystem
    )(num_tables=4, table_capacity=100)


def kept_lines(path):
    """A failed run's sink: readable, and cut at the miss that raised."""
    lines = path.read_text().splitlines()
    events = [json.loads(line)["event"] for line in lines]
    assert events.count("lookup_miss") == _InstallFails.NTH
    assert events[-1] == "lookup_miss"
    return lines


class _FailingIO(io.StringIO):
    def __init__(self, fail_on="write"):
        super().__init__()
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise OSError("disk full")
        return super().write(text)

    def flush(self):
        if self.fail_on == "flush":
            raise OSError("stale handle")
        return super().flush()


# ---------------------------------------------------------------------------
# Tracer-level guard


class TestTracerSinkGuard:
    def test_exclusive_open_rejects_existing_file(self, tmp_path):
        stale = tmp_path / "trace.jsonl"
        stale.write_text("{}\n")
        with pytest.raises(TraceSinkError) as excinfo:
            Tracer(sink=str(stale), exclusive=True)
        assert excinfo.value.path == str(stale)
        # The stale content was not touched.
        assert stale.read_text() == "{}\n"

    def test_non_exclusive_open_still_truncates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("old\n")
        tracer = Tracer(sink=str(path))
        tracer.close()
        assert "old" not in path.read_text()

    def test_open_into_invalid_directory(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        target = blocker / "trace.jsonl"
        with pytest.raises(TraceSinkError) as excinfo:
            Tracer(sink=str(target), exclusive=True)
        assert excinfo.value.path == str(target)

    def test_write_failure_wrapped(self):
        tracer = Tracer(sink=_FailingIO("write"))
        tracer.emit(0.0, EV_SWEEP, "c", 0)
        with pytest.raises(TraceSinkError):
            tracer.flush()

    def test_close_failure_wrapped(self):
        tracer = Tracer(sink=_FailingIO("flush"))
        with pytest.raises(TraceSinkError):
            tracer.close()


# ---------------------------------------------------------------------------
# Sharded fan-out


class TestShardedSinkGuard:
    def _driver(self, sink, mode, shards=2, factory=gigaflow_factory):
        workload = seeded_workload()
        driver = ShardedSimulator(
            workload.pipeline,
            factory,
            SimConfig(telemetry=Telemetry(trace_sink=str(sink))),
            shards=shards,
            mode=mode,
        )
        return driver, seeded_trace(workload)

    def test_inline_worker_names_shard(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        (tmp_path / "t.jsonl.shard1").write_text("stale\n")
        driver, trace = self._driver(sink, "inline")
        with pytest.raises(TraceSinkError, match="shard1"):
            driver.run(trace)

    def test_process_worker_surfaces_shard_id(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        (tmp_path / "t.jsonl.shard0").write_text("stale\n")
        driver, trace = self._driver(sink, "processes")
        with pytest.raises(PartError) as excinfo:
            driver.run(trace)
        assert excinfo.value.part == "shard0"

    def test_clean_directory_fans_out(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        driver, trace = self._driver(sink, "inline")
        driver.run(trace)
        assert (tmp_path / "t.jsonl.shard0").exists()
        assert (tmp_path / "t.jsonl.shard1").exists()

    def test_a_run_that_raises_keeps_the_events_up_to_it(self, tmp_path):
        """A failing shard's sink is still flushed and closed: its file
        is the clean run's, cut at the miss whose install raised."""
        clean, trace = self._driver(tmp_path / "clean.jsonl", "inline")
        clean.run(trace)
        whole = (tmp_path / "clean.jsonl.shard1").read_text().splitlines()

        failing, trace = self._driver(
            tmp_path / "t.jsonl", "inline",
            factory=failing_where(lambda context: context.index == 1),
        )
        with pytest.raises(RuntimeError, match="install failed"):
            failing.run(trace)
        kept = kept_lines(tmp_path / "t.jsonl.shard1")
        assert kept == whole[:len(kept)] and len(kept) < len(whole)


# ---------------------------------------------------------------------------
# Fabric fan-out


class TestFabricSinkGuard:
    def _fabric(self, sink, system_factory=gigaflow_factory):
        topo = leaf_spine(2, 2)
        return FabricSimulator(
            topo,
            lambda _context: seeded_workload().pipeline,
            system_factory,
            controller=FabricController(
                topo, build_fabric_endpoints(topo, 250, seed=5)
            ),
            config=SimConfig(telemetry=Telemetry(trace_sink=str(sink))),
        )

    def test_stale_switch_sink_fails_loudly(self, tmp_path):
        (tmp_path / "f.jsonl.leaf1").write_text("stale\n")
        fabric = self._fabric(tmp_path / "f.jsonl")
        with pytest.raises(TraceSinkError) as excinfo:
            fabric.run(seeded_trace(seeded_workload()))
        assert excinfo.value.path == str(tmp_path / "f.jsonl.leaf1")

    def test_a_run_that_raises_keeps_the_events_up_to_it(self, tmp_path):
        fabric = self._fabric(
            tmp_path / "f.jsonl",
            failing_where(lambda context: context.name == "spine0"),
        )
        with pytest.raises(RuntimeError, match="install failed"):
            fabric.run(seeded_trace(seeded_workload()))
        assert kept_lines(tmp_path / "f.jsonl.spine0")
        # The switches that did not fail were flushed as well.
        assert (tmp_path / "f.jsonl.leaf0").read_text().endswith("}\n")
