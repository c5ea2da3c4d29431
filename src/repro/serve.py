"""repro.serve — live serving mode: unbounded traffic, live metrics, churn.

The batch engine replays a fixed trace and returns one
:class:`~repro.sim.results.SimResult`.  A deployed SmartNIC datapath
does neither: packets arrive forever, operators scrape metrics while it
runs, and the control plane mutates the pipeline underneath the cache.
This module is that operating mode:

* :class:`ServingDriver` consumes packets from any (possibly unbounded)
  iterable in bounded micro-batches, feeding each to the run's
  :class:`~repro.sim.engine.PacketKernel` — the same per-packet body
  the offline engine drives, so the differential battery in
  ``tests/test_serve_differential.py`` holds at every micro-batch
  size, with and without churn, by construction.
* :func:`stream_trace` adapts a columnar
  :class:`~repro.workload.pipebench.Trace` into a packet stream via the
  same chunked ``tolist()`` decode the columnar driver uses.
* :func:`endless_packets` turns a Pipebench workload into a
  deterministic unbounded generator (seeded per-segment traces with
  advancing time offsets) — the soak tests' traffic source.
* :class:`MetricsServer` serves
  :meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus` from an
  opt-in stdlib :mod:`http.server` thread, so a live run is scrapeable
  at ``/metrics`` (plus ``/healthz``) without any new dependency.

See ``docs/serving.md`` for the operational story.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterable, Iterator, Optional

from .flow.packet import Packet
from .sim.batch import CHUNK_SIZE
from .sim.engine import (
    CachingSystem,
    PacketKernel,
    SimConfig,
    VSwitchSimulator,
)
from .sim.results import SimResult
from .workload.caida import CAIDA_PROFILE, TraceProfile
from .workload.pipebench import PipebenchWorkload, Trace, build_trace

__all__ = [
    "MetricsServer",
    "ServeConfig",
    "ServingDriver",
    "endless_packets",
    "stream_trace",
]


def stream_trace(trace: Trace) -> Iterator[Packet]:
    """Yield a trace's packets in timestamp order.

    Decodes the numpy columns :data:`~repro.sim.batch.CHUNK_SIZE` rows
    at a time with one ``tolist()`` call each — the same amortisation
    the columnar driver uses, repackaged for streaming consumers.
    """
    times, flow_indices, sizes = trace.columns()
    pilots = trace.pilots
    total = len(times)
    pos = 0
    while pos < total:
        end = min(pos + CHUNK_SIZE, total)
        t_chunk = times[pos:end].tolist()
        i_chunk = flow_indices[pos:end].tolist()
        s_chunk = sizes[pos:end].tolist()
        pos = end
        for timestamp, index, size in zip(t_chunk, i_chunk, s_chunk):
            yield Packet(
                flow=pilots[index].flow,
                timestamp=timestamp,
                size=size,
                flow_id=index,
            )


def endless_packets(
    workload: PipebenchWorkload,
    profile: TraceProfile = CAIDA_PROFILE,
    seed: int = 1,
) -> Iterator[Packet]:
    """A deterministic unbounded packet stream over a workload.

    Generates successive seeded trace segments with advancing time
    offsets (segment *i* uses ``seed + i`` at offset
    ``i * profile.duration``) and chains their packets.  Timestamps can
    regress slightly at segment seams — flows that start near a
    segment's end emit past its nominal duration — which is realistic
    (NIC arrivals are not globally sorted) and harmless to the serving
    loop's cadence logic.
    """
    segment = 0
    while True:
        trace = build_trace(
            workload.pilots,
            profile,
            seed=seed + segment,
            offset=segment * profile.duration,
        )
        yield from stream_trace(trace)
        segment += 1


# =============================================================================
# HTTP metrics endpoint


class _MetricsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    render: Callable[[], str]


class _MetricsHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
        path = self.path.split("?", 1)[0]
        if path in ("/", "/metrics"):
            body = self.server.render().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path == "/healthz":
            body = b"ok\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404, "unknown path (try /metrics)")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrapes must not spam the serving process's stderr


class MetricsServer:
    """An opt-in Prometheus scrape endpoint on a background thread.

    ``render`` is called per scrape (a retry loop absorbs the rare
    registry-mutation race — label children can be created while a
    scrape iterates).  ``port=0`` binds an ephemeral port, exposed as
    :attr:`port` once bound.  :meth:`close` is idempotent: it shuts the
    listener down, releases the port and joins the thread.
    """

    def __init__(
        self,
        render: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        def safe_render() -> str:
            for _ in range(8):
                try:
                    return render()
                except RuntimeError:
                    # Registry children mutated mid-iteration; retry.
                    continue
            return "# metrics temporarily unavailable\n"

        self._server = _MetricsHTTPServer((host, port), _MetricsHandler)
        self._server.render = safe_render
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        self._closed = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# =============================================================================
# The serving driver


@dataclass
class ServeConfig:
    """Serving-mode knobs (the simulation knobs stay on ``SimConfig``).

    Attributes:
        batch_size: Packets pulled from the source per micro-batch.
            Purely an ingestion granularity — results are bit-identical
            at any size (pinned differentially).
        http: Start a :class:`MetricsServer` for the run.
        http_host: Bind address for the metrics endpoint.
        http_port: Bind port; ``0`` picks an ephemeral port.
    """

    batch_size: int = 256
    http: bool = False
    http_host: str = "127.0.0.1"
    http_port: int = 0

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")


class ServingDriver:
    """Streams micro-batches through the packet kernel, indefinitely.

    Lifecycle: :meth:`start` prepares the run (a fresh
    :class:`~repro.sim.engine.PacketKernel`, plus the optional metrics
    endpoint), :meth:`process` pushes one micro-batch of packets through
    it, and :meth:`finish` finalizes telemetry, stops the endpoint and
    returns the :class:`~repro.sim.results.SimResult`.  :meth:`serve`
    wraps the three around any packet iterable with optional
    packet/sim-time bounds.

    The driver owns ingestion only — batching, bounds, the endpoint.
    Loop state lives on the kernel between batches and every cadence
    fires off packet timestamps, so micro-batch size never shows in the
    result or the trace (``tests/test_serve_differential.py``).
    """

    def __init__(
        self,
        pipeline,
        system: CachingSystem,
        config: Optional[SimConfig] = None,
        serve_config: Optional[ServeConfig] = None,
    ):
        self.simulator = VSwitchSimulator(pipeline, system, config)
        self.serve_config = serve_config or ServeConfig()
        self.metrics_server: Optional[MetricsServer] = None
        self._kernel: Optional[PacketKernel] = None
        self._result: Optional[SimResult] = None

    # -- engine-state plumbing ------------------------------------------------

    @property
    def telemetry(self):
        return self._kernel.telemetry if self._kernel is not None else None

    @property
    def churn(self):
        return self.simulator.churn

    @property
    def now(self) -> float:
        """Simulated time of the last processed packet."""
        return self._kernel.now if self._kernel is not None else 0.0

    @property
    def packet_count(self) -> int:
        return self._kernel.packet_count if self._kernel is not None else 0

    def start(self) -> "ServingDriver":
        """Prepare the run; once per driver."""
        if self._kernel is not None:
            raise RuntimeError("ServingDriver.start() already called")
        self._kernel = self.simulator.kernel()
        serve = self.serve_config
        if serve.http:
            self.metrics_server = MetricsServer(
                self._render_metrics,
                host=serve.http_host,
                port=serve.http_port,
            )
        return self

    def _render_metrics(self) -> str:
        tel = self.telemetry
        if tel is None:
            return "# no telemetry attached to this serving run\n"
        return tel.registry.to_prometheus()

    def process(self, packets: Iterable[Packet]) -> int:
        """Run one micro-batch through the kernel; returns its size."""
        kernel = self._kernel
        if kernel is None:
            raise RuntimeError("call start() before process()")
        if self._result is not None:
            raise RuntimeError("driver already finished")
        before = kernel.packet_count
        kernel.run((packet.timestamp, packet.flow) for packet in packets)
        return kernel.packet_count - before

    def finish(self) -> SimResult:
        """Finalize the run; stops the metrics endpoint.  Idempotent."""
        if self._kernel is None:
            raise RuntimeError("call start() before finish()")
        if self._result is None:
            if self.metrics_server is not None:
                self.metrics_server.close()
            self._result = self._kernel.finish()
        return self._result

    def serve(
        self,
        source: Iterable[Packet],
        max_packets: Optional[int] = None,
        max_seconds: Optional[float] = None,
        on_batch: Optional[Callable[["ServingDriver"], None]] = None,
    ) -> SimResult:
        """Consume ``source`` in micro-batches until a bound trips.

        ``max_packets`` stops after exactly that many packets;
        ``max_seconds`` stops *before* the first packet whose timestamp
        is ``>= max_seconds`` (both bounds are deterministic functions
        of the stream, never of batch size).  ``on_batch`` runs after
        each micro-batch — the hook soak tests and CLI progress use.
        With no bounds, serves until the source is exhausted.
        """
        if self._kernel is None:
            self.start()
        batch_size = self.serve_config.batch_size
        iterator = iter(source)
        remaining = max_packets
        try:
            while True:
                if remaining is not None and remaining <= 0:
                    break
                batch = []
                for packet in iterator:
                    if (
                        max_seconds is not None
                        and packet.timestamp >= max_seconds
                    ):
                        iterator = iter(())
                        break
                    batch.append(packet)
                    if remaining is not None:
                        remaining -= 1
                        if remaining <= 0:
                            break
                    if len(batch) >= batch_size:
                        break
                if not batch:
                    break
                self.process(batch)
                if on_batch is not None:
                    on_batch(self)
                if remaining is not None and remaining <= 0:
                    break
        finally:
            result = self.finish()
        return result
