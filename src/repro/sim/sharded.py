"""Sharded multi-worker simulation engine (RSS-style flow partitioning).

Real SmartNIC deployments spread flows across cores with receive-side
scaling: the NIC hashes each packet's flow signature onto a queue, and
every core runs an independent vSwitch datapath — its own cache, its own
fast path, its own revalidator.  :class:`ShardedSimulator` reproduces
that layout in simulation: flows are hash-partitioned by flow signature
across ``SimConfig.shards`` worker *processes* (stdlib
``multiprocessing``, fork start method), each worker drives the classic
:class:`~repro.sim.engine.VSwitchSimulator` over its slice of the trace
(columnar decode), and the per-worker
:class:`~repro.sim.results.SimResult` records plus telemetry registries
merge losslessly in the parent (see ``docs/sharding.md`` for the merge
semantics and their one caveat, ``peak_entries``).

Sharding is *by flow*, not by packet: every packet of a flow lands on
the same shard, so per-flow cache behaviour (install → hits → idle
expiry) is unchanged; only cross-flow capacity pressure is partitioned.
The shard assignment uses :func:`zlib.crc32` over the flow's concrete
header values — stable across processes and Python runs, unlike builtin
``hash`` which is randomised per interpreter.

Failure handling is deliberately loud: a worker that raises, dies, or
outlives ``timeout`` surfaces as :class:`ShardWorkerError` /
:class:`ShardTimeoutError` carrying the shard id and every already-
completed shard's partial results — never a silent hang or a partial
merge presented as complete.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
import zlib
from dataclasses import dataclass, replace
from queue import Empty
from typing import Callable, Dict, List, Optional

import numpy as np

from ..flow.key import FlowKey
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceSinkError
from ..workload.pipebench import Trace
from .engine import CachingSystem, SimConfig, VSwitchSimulator
from .results import SimResult

__all__ = [
    "ShardContext",
    "ShardTimeoutError",
    "ShardWorkerError",
    "ShardedSimulator",
    "flow_shard",
    "shard_seed",
    "split_trace",
]


def shard_seed(seed: int, shard_id: int) -> int:
    """Derive shard ``shard_id``'s RNG seed from the run seed.

    CRC-mixed so neighbouring shard ids do not produce correlated
    streams, yet fully determined by ``(seed, shard_id)`` — the
    determinism contract pinned by ``tests/test_sharded.py``.
    """
    return zlib.crc32(f"{seed}/{shard_id}".encode("ascii")) & 0x7FFFFFFF


def flow_shard(flow: FlowKey, shards: int) -> int:
    """RSS hash: map a flow signature onto one of ``shards`` workers.

    Uses CRC32 over the concrete header values so the assignment is
    stable across processes and interpreter runs (builtin ``hash`` is
    randomised per process for str/bytes; CRC32 never is).
    """
    digest = zlib.crc32(repr(flow.values).encode("ascii"))
    return digest % shards


def split_trace(trace: Trace, shards: int) -> List[Trace]:
    """Partition a trace into per-shard traces by flow signature.

    Every packet of a flow lands in exactly one shard trace; each shard
    trace preserves the parent's timestamp order and shares its pilot
    table, so the union of the parts replays the original stream
    exactly (disjointness and conservation are pinned by tests).
    """
    if shards <= 1:
        return [trace]
    _times, flow_indices, _sizes = trace.columns()
    pilot_shards = np.array(
        [flow_shard(pilot.flow, shards) for pilot in trace.pilots],
        dtype=np.int64,
    )
    packet_shards = pilot_shards[flow_indices]
    return [trace.subset(packet_shards == sid) for sid in range(shards)]


@dataclass(frozen=True)
class ShardContext:
    """What a worker knows about its place in the sharded run.

    Passed to the ``system_factory`` so it can size its shard's cache
    (capacity is typically ``total // shards``) and seed any stochastic
    choices from :attr:`seed` — the only sanctioned randomness source
    inside a worker, derived via :func:`shard_seed` so runs are
    reproducible per ``(run seed, shard id)`` regardless of worker
    scheduling.
    """

    shard_id: int
    shards: int
    seed: int

    def rng(self):
        """A ``random.Random`` seeded for this shard."""
        import random

        return random.Random(self.seed)


class ShardWorkerError(RuntimeError):
    """A shard worker raised or died before reporting its result.

    Attributes:
        shard_id: The failing shard.
        partial: ``{shard_id: SimResult}`` for every shard that *did*
            complete — partial telemetry for post-mortems.
    """

    def __init__(
        self,
        shard_id: int,
        message: str,
        partial: Optional[Dict[int, SimResult]] = None,
    ):
        super().__init__(f"shard {shard_id}: {message}")
        self.shard_id = shard_id
        self.partial = dict(partial or {})


class ShardTimeoutError(RuntimeError):
    """The sharded run exceeded its wall-clock budget.

    Attributes:
        pending: Shard ids that had not reported when time ran out.
        partial: ``{shard_id: SimResult}`` of completed shards.
    """

    def __init__(
        self,
        timeout: float,
        pending: List[int],
        partial: Optional[Dict[int, SimResult]] = None,
    ):
        super().__init__(
            f"sharded run exceeded {timeout:.1f}s; shards still "
            f"running: {sorted(pending)}"
        )
        self.pending = sorted(pending)
        self.partial = dict(partial or {})


def _worker_main(queue, driver: "ShardedSimulator", shard_id: int,
                 shards: int, trace: Trace) -> None:
    """Child-process entry point (fork: arguments arrive by inheritance,
    only the result travels back through the queue's pickler)."""
    try:
        # The inherited heap is read-mostly; freezing it keeps the
        # cyclic collector from rescanning (and COW-duplicating) the
        # parent's pages on every child GC pass, which otherwise bills
        # the whole parent heap to each worker's CPU time.
        gc.freeze()
        payload = driver._run_shard(shard_id, shards, trace)
        queue.put(("ok", shard_id, payload))
    except BaseException as exc:  # noqa: BLE001 - must reach the parent
        queue.put(("err", shard_id, f"{type(exc).__name__}: {exc}"))


class ShardedSimulator:
    """Drives N independent engine workers over a flow-partitioned trace.

    Args:
        pipeline: The populated slow-path pipeline.  Workers fork from
            the parent, so each gets a private copy-on-write copy; the
            engine only reads rule state and takes probe-count deltas,
            so sharing one pipeline across shards is safe in every mode.
        system_factory: ``Callable[[ShardContext], CachingSystem]`` —
            called once per shard (inside the worker process for
            ``"processes"`` mode) to build that shard's private caching
            system.  Size caches here: a faithful scaling experiment
            gives each shard ``total_capacity // shards``.
        config: Shared :class:`SimConfig`; :attr:`SimConfig.shards`
            picks the worker count.  ``telemetry`` acts as an opt-in
            flag — each worker gets a *fresh* hub cloned from the
            parent hub's tracer settings (ring capacity, enablement,
            event mask).  A path-opened parent trace sink fans out to
            per-worker ``<path>.shard<N>`` JSONL files, each opened and
            closed inside its worker (caller-owned IO sinks stay
            parent-only); per-worker registries are merged with
            ``MetricsRegistry.merged`` into :attr:`registry`, and the
            merged telemetry summary folds each shard's
            ``trace_events``/``trace_dropped`` counts.
        seed: Run seed; shard ``i`` derives :func:`shard_seed(seed, i)`.
        mode: ``"auto"`` (default) runs real worker processes when
            ``shards > 1`` and collapses to the classic in-process
            engine when ``shards == 1`` (bit-identical to
            :class:`VSwitchSimulator` — the golden-test contract);
            ``"processes"`` forces worker processes even for one shard;
            ``"inline"`` runs the same per-shard protocol sequentially
            in-process (deterministic debugging, coverage, and the
            inline-vs-processes differential tests).
        timeout: Optional wall-clock budget in seconds for the whole
            fan-out; exceeded → workers are terminated and
            :class:`ShardTimeoutError` raises with partial results.

    After :meth:`run`: :attr:`shard_results` holds the per-shard
    ``SimResult`` list, :attr:`shard_timings` per-shard CPU/wall
    seconds, :attr:`registry` the merged metrics registry (``None``
    without telemetry).
    """

    def __init__(
        self,
        pipeline,
        system_factory: Callable[[ShardContext], CachingSystem],
        config: Optional[SimConfig] = None,
        seed: int = 0,
        mode: str = "auto",
        timeout: Optional[float] = None,
    ):
        if mode not in ("auto", "processes", "inline"):
            raise ValueError(f"unknown mode {mode!r}")
        self.pipeline = pipeline
        self.system_factory = system_factory
        self.config = config or SimConfig()
        self.seed = seed
        self.mode = mode
        self.timeout = timeout
        #: Per-shard results of the most recent run, indexed by shard id.
        self.shard_results: List[SimResult] = []
        #: Per-shard ``{"shard", "packets", "cpu_seconds",
        #: "wall_seconds"}`` timing records of the most recent run.
        self.shard_timings: List[dict] = []
        #: Merged per-worker metrics registry (None without telemetry).
        self.registry: Optional[MetricsRegistry] = None

    # -- worker body ------------------------------------------------------------

    def _run_shard(self, shard_id: int, shards: int, trace: Trace):
        """Run one shard to completion (called inside the worker for
        ``"processes"`` mode, in-process for ``"inline"``)."""
        parent = self.config.telemetry
        try:
            # Opened here, inside the worker: no descriptor crosses
            # the fork (see Telemetry.derive).
            tel = (
                parent.derive(f"shard{shard_id}")
                if parent is not None
                else None
            )
        except TraceSinkError as exc:
            # Name the shard loudly (ShardWorkerError semantics): in
            # processes mode the parent wraps this into a
            # ShardWorkerError; inline mode raises it directly.
            raise TraceSinkError(
                f"shard {shard_id}: {exc}", path=exc.path
            ) from exc
        cfg = replace(self.config, shards=1, telemetry=tel)
        context = ShardContext(
            shard_id=shard_id,
            shards=shards,
            seed=shard_seed(self.seed, shard_id),
        )
        try:
            simulator = VSwitchSimulator(
                self.pipeline, self.system_factory(context), cfg
            )
            cpu_start = time.process_time()
            wall_start = time.perf_counter()
            result = simulator.run(trace)
            cpu_seconds = time.process_time() - cpu_start
            wall_seconds = time.perf_counter() - wall_start
        finally:
            if tel is not None:
                # Flush the buffered tail to the shard's derived sink
                # and release the descriptor, also when the run raised:
                # the events up to the failure are the evidence.
                tel.tracer.close()
        registry = tel.registry if tel is not None else None
        return result, registry, cpu_seconds, wall_seconds

    # -- driver -----------------------------------------------------------------

    def run(self, trace: Trace) -> SimResult:
        config = self.config
        shards = max(1, int(config.shards))
        if shards == 1 and self.mode != "processes":
            # Collapse to the classic engine with the caller's own
            # config (telemetry hub included): bit-identical to a
            # plain VSwitchSimulator run — the golden-test contract.
            context = ShardContext(
                shard_id=0, shards=1, seed=shard_seed(self.seed, 0)
            )
            simulator = VSwitchSimulator(
                self.pipeline, self.system_factory(context), self.config
            )
            cpu_start = time.process_time()
            wall_start = time.perf_counter()
            result = simulator.run(trace)
            self.shard_results = [result]
            self.shard_timings = [{
                "shard": 0,
                "packets": result.packets,
                "cpu_seconds": time.process_time() - cpu_start,
                "wall_seconds": time.perf_counter() - wall_start,
            }]
            self.registry = (
                config.telemetry.registry
                if config.telemetry is not None
                else None
            )
            return result

        shard_traces = split_trace(trace, shards)
        if self.mode == "inline" or not _fork_available():
            payloads = [
                self._run_shard(sid, shards, shard_traces[sid])
                for sid in range(shards)
            ]
        else:
            payloads = self._run_processes(shard_traces, shards)
        return self._merge(payloads)

    def _run_processes(self, shard_traces: List[Trace], shards: int):
        """Fan out one forked worker per shard and gather results.

        Collection is poll-based: a bounded ``queue.get`` alternates
        with liveness checks, so a worker that dies without reporting
        (hard crash, ``os._exit``) is detected within a fraction of a
        second instead of hanging the parent forever.
        """
        mp = multiprocessing.get_context("fork")
        # Drop collectable garbage before forking so children do not
        # inherit (and freeze) pages of already-dead parent objects.
        gc.collect()
        queue = mp.Queue()
        workers = {}
        for sid, shard_trace in enumerate(shard_traces):
            process = mp.Process(
                target=_worker_main,
                args=(queue, self, sid, shards, shard_trace),
                daemon=True,
                name=f"repro-shard-{sid}",
            )
            process.start()
            workers[sid] = process

        done: Dict[int, tuple] = {}
        pending = set(range(shards))
        deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None
            else None
        )

        def partial() -> Dict[int, SimResult]:
            return {sid: done[sid][0] for sid in done}

        def reap() -> None:
            for process in workers.values():
                if process.is_alive():
                    process.terminate()
            for process in workers.values():
                process.join(timeout=2.0)

        def accept(kind: str, sid: int, payload) -> None:
            pending.discard(sid)
            if kind == "err":
                reap()
                raise ShardWorkerError(sid, payload, partial())
            done[sid] = payload

        try:
            while pending:
                if deadline is not None and time.monotonic() > deadline:
                    reap()
                    raise ShardTimeoutError(
                        self.timeout, sorted(pending), partial()
                    )
                try:
                    kind, sid, payload = queue.get(timeout=0.25)
                except Empty:
                    dead = [
                        sid for sid in pending
                        if not workers[sid].is_alive()
                    ]
                    if not dead:
                        continue
                    # A dead worker's result may still sit in the queue
                    # pipe; drain with a short grace window before
                    # declaring the crash.
                    grace_end = time.monotonic() + 1.0
                    while pending and time.monotonic() < grace_end:
                        try:
                            kind, sid, payload = queue.get(timeout=0.1)
                        except Empty:
                            continue
                        accept(kind, sid, payload)
                    still_dead = [sid for sid in dead if sid in pending]
                    if still_dead:
                        sid = still_dead[0]
                        code = workers[sid].exitcode
                        reap()
                        raise ShardWorkerError(
                            sid,
                            f"worker process died without reporting "
                            f"a result (exit code {code})",
                            partial(),
                        )
                    continue
                accept(kind, sid, payload)
        finally:
            reap()
        return [done[sid] for sid in range(shards)]

    def _merge(self, payloads) -> SimResult:
        results = [payload[0] for payload in payloads]
        self.shard_results = results
        self.shard_timings = [
            {
                "shard": sid,
                "packets": payload[0].packets,
                "cpu_seconds": payload[2],
                "wall_seconds": payload[3],
            }
            for sid, payload in enumerate(payloads)
        ]
        registries = [
            payload[1] for payload in payloads if payload[1] is not None
        ]
        self.registry = (
            MetricsRegistry.merged(registries) if registries else None
        )
        return SimResult.merge(results)


def _fork_available() -> bool:
    """Fork start method present (Linux/macOS); spawn would have to
    pickle the pipeline and factory, which we do not require of
    callers — without fork the driver degrades to inline execution."""
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True
