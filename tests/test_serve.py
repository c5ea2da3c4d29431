"""Tests for the live serving mode: sources, goldens, HTTP, soak.

The contracts pinned here, in order:

* **Sources** — :func:`stream_trace` is packet-for-packet identical to
  a row-at-a-time read of the trace's columns at any chunk size, and
  :func:`endless_packets`
  is a deterministic unbounded stream whose segments advance in time.
* **Golden equivalence** — a churn-free :class:`ServingDriver` run over
  a seeded trace is bit-identical to the batch engine's
  :meth:`~repro.sim.engine.VSwitchSimulator.run`, down to the rendered
  Prometheus exposition text.
* **HTTP endpoint** — a live run is scrapeable mid-flight with valid
  exposition output; shutdown is idempotent, joins the thread and
  releases the port.
* **Soak** — thousands of simulated seconds under recurring churn leave
  every unbounded-growth candidate bounded: the revalidation backlog
  drains and the trace ring respects its capacity.
"""

import socket
import urllib.error
import urllib.request

import pytest

from conftest import seeded_trace, seeded_workload
from prometheus_text import parse_prometheus_text
from test_obs import result_fingerprint
from repro import serve
from repro.obs import Telemetry
from repro.serve import (
    MetricsServer,
    ServeConfig,
    ServingDriver,
    endless_packets,
    stream_trace,
)
from repro.sim import ChurnConfig, GigaflowSystem, SimConfig, VSwitchSimulator
from repro.workload import (
    TraceProfile,
    build_workload,
    insert_delete_storm,
    priority_shuffle_schedule,
)

ACL_TABLE = 5


def gigaflow():
    return GigaflowSystem(num_tables=4, table_capacity=400)


def sim_config(**overrides):
    base = dict(max_idle=2.0, sweep_interval=1.0)
    base.update(overrides)
    return SimConfig(**base)


def packet_tuple(packet):
    return (packet.timestamp, packet.flow_id, packet.size, packet.flow)


# ---------------------------------------------------------------------------
# Packet sources


class TestStreamTrace:
    @pytest.mark.parametrize("chunk", [1, 3, 1000, 100_000])
    def test_matches_trace_packets(self, chunk, monkeypatch):
        """Any decode chunk size streams the same packets."""
        monkeypatch.setattr(serve, "CHUNK_SIZE", chunk)
        trace = seeded_trace(seeded_workload())
        times, flow_indices, sizes = trace.columns()
        expected = [
            (float(time), int(index), int(size), trace.pilots[index].flow)
            for time, index, size in zip(times, flow_indices, sizes)
        ]
        streamed = [
            packet_tuple(p) for p in stream_trace(trace)
        ]
        assert streamed == expected


class TestEndlessPackets:
    PROFILE = TraceProfile(mean_flow_size=4.0, duration=5.0)

    def take(self, count, seed=1):
        workload = seeded_workload(n_flows=40)
        source = endless_packets(workload, profile=self.PROFILE, seed=seed)
        return [packet_tuple(next(source)) for _ in range(count)]

    def test_deterministic(self):
        assert self.take(600) == self.take(600)
        assert self.take(200, seed=1) != self.take(200, seed=2)

    def test_segments_advance_in_time(self):
        packets = self.take(1500)
        times = [p[0] for p in packets]
        # Three segments of ~160 packets each were consumed; later
        # segments live at later offsets even though seam-local
        # timestamps may regress.
        assert times[-1] > 2 * self.PROFILE.duration
        first_segment_max = max(times[:100])
        assert max(times) > first_segment_max


# ---------------------------------------------------------------------------
# Driver lifecycle and golden equivalence


class TestServingDriverLifecycle:
    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            ServeConfig(batch_size=0)

    def test_process_requires_start(self):
        workload = seeded_workload()
        driver = ServingDriver(workload.pipeline, gigaflow(), sim_config())
        with pytest.raises(RuntimeError, match="start"):
            driver.process([])
        with pytest.raises(RuntimeError, match="start"):
            driver.finish()

    def test_state_reads_before_start(self):
        workload = seeded_workload()
        driver = ServingDriver(workload.pipeline, gigaflow(), sim_config())
        assert driver.telemetry is None
        assert driver.churn is None
        assert driver.now == 0.0
        assert driver.packet_count == 0

    def test_start_is_once_only(self):
        workload = seeded_workload()
        driver = ServingDriver(workload.pipeline, gigaflow(), sim_config())
        driver.start()
        with pytest.raises(RuntimeError, match="already called"):
            driver.start()
        driver.finish()

    def test_finish_is_idempotent_and_seals_the_run(self):
        workload = seeded_workload()
        trace = seeded_trace(workload)
        driver = ServingDriver(workload.pipeline, gigaflow(), sim_config())
        result = driver.serve(stream_trace(trace))
        assert driver.finish() is result
        with pytest.raises(RuntimeError, match="finished"):
            driver.process([])

    def test_max_packets_bound(self):
        workload = seeded_workload()
        trace = seeded_trace(workload)
        driver = ServingDriver(
            workload.pipeline, gigaflow(), sim_config(),
            ServeConfig(batch_size=50),
        )
        result = driver.serve(stream_trace(trace), max_packets=123)
        assert result.packets == 123

    def test_max_packets_zero(self):
        workload = seeded_workload()
        driver = ServingDriver(workload.pipeline, gigaflow(), sim_config())
        result = driver.serve(stream_trace(seeded_trace(workload)),
                              max_packets=0)
        assert result.packets == 0

    def test_max_seconds_bound_is_batch_size_invariant(self):
        counts = set()
        for batch_size in (1, 17, 4096):
            workload = seeded_workload()
            trace = seeded_trace(workload)
            driver = ServingDriver(
                workload.pipeline, gigaflow(), sim_config(),
                ServeConfig(batch_size=batch_size),
            )
            result = driver.serve(stream_trace(trace), max_seconds=3.0)
            assert driver.now < 3.0
            counts.add(result.packets)
        assert len(counts) == 1  # the cut point is a property of the stream
        assert counts.pop() > 0


class TestGoldenEquivalence:
    def test_churn_free_serve_matches_batch_engine(self):
        # Batch engine reference run.
        workload = seeded_workload()
        trace = seeded_trace(workload)
        ref_config = sim_config(telemetry=Telemetry())
        reference = VSwitchSimulator(
            workload.pipeline, gigaflow(), ref_config
        ).run(trace)

        # Serving run over an identically seeded universe.
        workload2 = seeded_workload()
        trace2 = seeded_trace(workload2)
        serve_config = sim_config(telemetry=Telemetry())
        driver = ServingDriver(
            workload2.pipeline, gigaflow(), serve_config,
            ServeConfig(batch_size=97),
        )
        result = driver.serve(stream_trace(trace2))

        assert result_fingerprint(result) == result_fingerprint(reference)
        # The scrape surface agrees byte-for-byte too.
        assert (
            serve_config.telemetry.registry.to_prometheus()
            == ref_config.telemetry.registry.to_prometheus()
        )


# ---------------------------------------------------------------------------
# HTTP endpoint


def get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read().decode(), response.headers


class TestMetricsServer:
    def test_serves_render_and_healthz(self):
        with MetricsServer(lambda: "# HELP x y\n") as server:
            body, headers = get(server.url)
            assert body == "# HELP x y\n"
            assert headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in headers["Content-Type"]
            root, _ = get(f"http://{server.host}:{server.port}/")
            assert root == body
            health, _ = get(f"http://{server.host}:{server.port}/healthz")
            assert health == "ok\n"

    def test_unknown_path_404(self):
        with MetricsServer(lambda: "") as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(f"http://{server.host}:{server.port}/nope")
            assert excinfo.value.code == 404

    def test_render_failures_degrade_to_placeholder(self):
        def explode():
            raise RuntimeError("registry mutated")

        with MetricsServer(explode) as server:
            body, _ = get(server.url)
            assert body.startswith("# metrics temporarily unavailable")

    def test_close_is_idempotent_and_releases_port(self):
        server = MetricsServer(lambda: "")
        host, port = server.host, server.port
        server.close()
        server.close()  # second close is a no-op
        assert not server._thread.is_alive()
        # The port is actually free again: a plain bind succeeds.
        with socket.socket() as probe:
            probe.bind((host, port))

    def test_live_run_is_scrapeable(self):
        workload = seeded_workload()
        trace = seeded_trace(workload)
        config = sim_config(telemetry=Telemetry())
        driver = ServingDriver(
            workload.pipeline, gigaflow(), config,
            ServeConfig(batch_size=500, http=True),
        )
        scrapes = []

        def scrape(drv):
            if len(scrapes) < 2:
                body, _ = get(drv.metrics_server.url)
                scrapes.append((drv.packet_count, body))

        result = driver.serve(stream_trace(trace), on_batch=scrape)
        assert result.packets == len(trace)
        assert len(scrapes) == 2
        for packet_count, body in scrapes:
            families = parse_prometheus_text(body)
            assert "repro_cache_lookups_total" in families
            # Hooks flush in batches, so the scrape may trail the loop
            # slightly — but it must be live (nonzero, ≤ packets seen).
            observed = sum(
                families["repro_cache_lookups_total"].values()
            )
            assert 0 < observed <= packet_count
        # serve() tore the endpoint down with the run.
        assert driver.metrics_server._closed
        assert not driver.metrics_server._thread.is_alive()

    def test_http_off_means_no_server(self):
        workload = seeded_workload()
        driver = ServingDriver(workload.pipeline, gigaflow(), sim_config())
        driver.serve(stream_trace(seeded_trace(workload)), max_packets=10)
        assert driver.metrics_server is None


# ---------------------------------------------------------------------------
# Soak


@pytest.mark.soak
def test_soak_recurring_churn_stays_bounded():
    """Thousands of simulated seconds under recurring churn: nothing grows.

    The unbounded-growth candidates a long-lived serving process could
    leak through, each sampled every micro-batch:

    * revalidation backlog (stale live entries) — must stay under the
      cache's entry count and drain to zero once the control plane
      quiets down;
    * the telemetry trace ring — hard-capped at its capacity.
    """
    from repro.pipeline import PSC

    trace_capacity = 2048
    workload = build_workload(PSC, n_flows=60, locality="high", seed=11)
    total_capacity = 4 * 200

    storm = insert_delete_storm(
        workload.pilots, ACL_TABLE,
        start=10.0, count=55, gap=8.0, hold=4.0, seed=2,
    )
    shuffles = priority_shuffle_schedule(
        ACL_TABLE, [float(t) for t in range(100, 1500, 200)], seed=5,
    )
    schedule = storm.merged_with(shuffles)
    horizon = 2_000.0
    # Leaves a quiet drain window.
    assert schedule.events[-1].at < horizon - 500

    telemetry = Telemetry(trace_capacity=trace_capacity, tracing=True)
    config = sim_config(
        telemetry=telemetry,
        churn=ChurnConfig(schedule=schedule, reval_budget=32),
    )
    driver = ServingDriver(
        workload.pipeline,
        GigaflowSystem(num_tables=4, table_capacity=200),
        config,
        ServeConfig(batch_size=512),
    )
    profile = TraceProfile(mean_flow_size=6.0, duration=50.0)

    backlog_samples = []
    ring_peak = 0

    def sample(drv):
        nonlocal ring_peak
        backlog_samples.append(drv.churn.backlog)
        ring_peak = max(ring_peak, len(telemetry.tracer))

    result = driver.serve(
        endless_packets(workload, profile=profile, seed=7),
        max_seconds=horizon,
        on_batch=sample,
    )

    digest = driver.churn.digest()
    assert digest["pending_events"] == 0  # every scheduled event fired
    assert digest["events"] == len(schedule)
    assert digest["reval_evicted"] > 0  # churn actually stranded entries
    # Per-tick peak (checked + residue) caught the transient backlog
    # even though batch-boundary samples may only see it drained.
    assert digest["backlog_peak"] > 0

    # Boundedness: the backlog never exceeds what can be live at once,
    # and it has fully drained by the quiet tail of the run.
    assert digest["backlog_peak"] <= total_capacity
    assert max(backlog_samples) <= total_capacity
    assert digest["backlog"] == 0
    assert backlog_samples[-1] == 0
    assert driver.churn._installed == {}  # every storm rule was withdrawn

    assert ring_peak <= trace_capacity

    assert driver.now > 1_000.0  # genuinely a long soak
    assert result.packets > 5_000
