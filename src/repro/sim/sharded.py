"""Sharded multi-worker simulation engine (RSS-style flow partitioning).

Real SmartNIC deployments spread flows across cores with receive-side
scaling: the NIC hashes each packet's flow signature onto a queue, and
every core runs an independent vSwitch datapath — its own cache, its own
fast path, its own revalidator.  :class:`ShardedSimulator` reproduces
that layout in simulation: flows are hash-partitioned by flow signature
across ``shards`` worker *processes* (stdlib ``multiprocessing``, fork
start method), each worker drives the classic
:class:`~repro.sim.engine.VSwitchSimulator` over its slice of the trace
(columnar decode), and the per-worker
:class:`~repro.sim.results.SimResult` records plus telemetry registries
merge losslessly in the parent (see ``docs/sharding.md`` for the merge
semantics and their one caveat, ``peak_entries``).  Each shard is one
part of a :class:`~repro.sim.fanout.FanOut`; this module adds the
shard key, the worker processes and their timings.

Sharding is *by flow*, not by packet: every packet of a flow lands on
the same shard, so per-flow cache behaviour (install → hits → idle
expiry) is unchanged; only cross-flow capacity pressure is partitioned.
The shard assignment uses :func:`zlib.crc32` over the flow's concrete
header values — stable across processes and Python runs, unlike builtin
``hash`` which is randomised per interpreter.

Failure handling is deliberately loud: a shard that raises or dies
surfaces as :class:`~repro.sim.fanout.PartError` and a run that
outlives ``timeout`` as :class:`ShardTimeoutError`, each carrying every
already-completed shard's partial results — never a silent hang or a
partial merge presented as complete.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
import zlib
from queue import Empty
from typing import Callable, Dict, List, Optional

import numpy as np

from ..flow.key import FlowKey
from ..obs.metrics import MetricsRegistry
from ..workload.pipebench import Trace
from .engine import CachingSystem, SimConfig, VSwitchSimulator
from .fanout import FanOut, PartContext, PartError
from .results import SimResult

__all__ = [
    "ShardTimeoutError",
    "ShardedSimulator",
    "flow_shard",
    "split_trace",
]


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


class ShardTimeoutError(RuntimeError):
    """The sharded run exceeded its wall-clock budget.

    Attributes:
        pending: Names of the shards that had not reported when time ran
            out.
        partial: ``{name: SimResult}`` of completed shards.
    """

    def __init__(
        self,
        timeout: float,
        pending: List[str],
        partial: Optional[Dict[str, SimResult]] = None,
    ):
        super().__init__(
            f"sharded run exceeded {timeout:.1f}s; shards still "
            f"running: {sorted(pending)}"
        )
        self.pending = sorted(pending)
        self.partial = dict(partial or {})


def _worker_main(queue, driver: "ShardedSimulator", fan: FanOut,
                 context: PartContext, trace: Trace) -> None:
    """Child-process entry point (fork: arguments arrive by inheritance,
    only the result travels back through the queue's pickler)."""
    try:
        # The inherited heap is read-mostly; freezing it keeps the
        # cyclic collector from rescanning (and COW-duplicating) the
        # parent's pages on every child GC pass, which otherwise bills
        # the whole parent heap to each worker's CPU time.
        gc.freeze()
        payload = driver._run_shard(fan, context, trace)
        queue.put(("ok", context.name, payload))
    except BaseException as exc:  # noqa: BLE001 - must reach the parent
        queue.put(("err", context.name, f"{type(exc).__name__}: {exc}"))


class ShardedSimulator:
    """Drives N independent engine workers over a flow-partitioned trace.

    Args:
        pipeline: The populated slow-path pipeline.  Shards only read
            its rules unless churn is configured; then each in-process
            shard runs on a private copy (:meth:`FanOut.private`) and a
            forked one on the copy fork gave it, so the caller's
            pipeline is never mutated.
        system_factory: ``Callable[[PartContext], CachingSystem]`` —
            called once per shard (inside the worker process for
            ``"processes"`` mode) to build that shard's private caching
            system.  Size caches here: a faithful scaling experiment
            gives each shard ``total_capacity // context.parts``.
        config: Shared :class:`SimConfig`.  ``telemetry`` acts as an
            opt-in flag — with more than one shard, or in worker
            processes, each shard gets ``telemetry.derive("shard<N>")``:
            a fresh hub with the parent's tracer settings, whose
            path-opened sink fans out to a ``<path>.shard<N>`` JSONL
            file opened and closed by that shard (caller-owned IO sinks
            stay parent-only).  Per-shard registries merge into
            :attr:`registry`, the run's one telemetry record; each
            shard's tracer keeps its own event counts.
        shards: Worker count.
        mode: ``"auto"`` (default) runs worker processes when
            ``shards > 1`` and one shard in-process, on the caller's own
            telemetry hub — bit-identical to :class:`VSwitchSimulator`,
            the golden-test contract; ``"processes"`` forces worker
            processes even for one shard; ``"inline"`` runs the shards
            one after another in-process (deterministic debugging,
            coverage, and the inline-vs-processes differential tests).
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
        system_factory: Callable[[PartContext], CachingSystem],
        config: Optional[SimConfig] = None,
        shards: int = 1,
        mode: str = "auto",
        timeout: Optional[float] = None,
    ):
        if mode not in ("auto", "processes", "inline"):
            raise ValueError(f"unknown mode {mode!r}")
        if shards < 1:
            raise ValueError("shards must be positive")
        self.pipeline = pipeline
        self.system_factory = system_factory
        self.config = config or SimConfig()
        self.shards = shards
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

    def _run_shard(self, fan: FanOut, context: PartContext, trace: Trace):
        """Run one shard to completion (called inside the worker for
        ``"processes"`` mode, in-process otherwise)."""
        with fan.part(context) as part:
            simulator = VSwitchSimulator(
                fan.private(self.pipeline),
                self.system_factory(context),
                part.config,
            )
            cpu_start = time.process_time()
            wall_start = time.perf_counter()
            result = simulator.run(trace)
            timing = {
                "shard": context.index,
                "packets": result.packets,
                "cpu_seconds": time.process_time() - cpu_start,
                "wall_seconds": time.perf_counter() - wall_start,
            }
        return result, part.registry, timing

    # -- driver -----------------------------------------------------------------

    def run(self, trace: Trace) -> SimResult:
        shards = self.shards
        forked = _fork_available() and (
            self.mode == "processes" or (self.mode == "auto" and shards > 1)
        )
        fan = FanOut(
            [f"shard{sid}" for sid in range(shards)], self.config, forked
        )
        shard_traces = split_trace(trace, shards)
        timings: Dict[str, dict] = {}
        if forked:
            self._run_processes(fan, shard_traces, timings)
        else:
            for context, shard_trace in zip(fan.contexts, shard_traces):
                with fan.guard(context.name):
                    result, registry, timing = self._run_shard(
                        fan, context, shard_trace
                    )
                fan.done(context.name, result, registry)
                timings[context.name] = timing

        result, self.registry = fan.merge()
        names = [context.name for context in fan.contexts]
        self.shard_results = [fan.results[name] for name in names]
        self.shard_timings = [timings[name] for name in names]
        return result

    def _run_processes(
        self,
        fan: FanOut,
        shard_traces: List[Trace],
        timings: Dict[str, dict],
    ) -> None:
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
        for context, shard_trace in zip(fan.contexts, shard_traces):
            process = mp.Process(
                target=_worker_main,
                args=(queue, self, fan, context, shard_trace),
                daemon=True,
                name=f"repro-{context.name}",
            )
            process.start()
            workers[context.name] = process

        pending = set(workers)
        deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None
            else None
        )

        def reap() -> None:
            for process in workers.values():
                if process.is_alive():
                    process.terminate()
            for process in workers.values():
                process.join(timeout=2.0)

        def accept(kind: str, name: str, payload) -> None:
            pending.discard(name)
            if kind == "err":
                reap()
                raise PartError(name, payload, fan.results)
            result, registry, timing = payload
            fan.done(name, result, registry)
            timings[name] = timing

        try:
            while pending:
                if deadline is not None and time.monotonic() > deadline:
                    reap()
                    raise ShardTimeoutError(
                        self.timeout, sorted(pending), fan.results
                    )
                try:
                    kind, name, payload = queue.get(timeout=0.25)
                except Empty:
                    dead = [
                        name for name in pending
                        if not workers[name].is_alive()
                    ]
                    if not dead:
                        continue
                    # A dead worker's result may still sit in the queue
                    # pipe; drain with a short grace window before
                    # declaring the crash.
                    grace_end = time.monotonic() + 1.0
                    while pending and time.monotonic() < grace_end:
                        try:
                            kind, name, payload = queue.get(timeout=0.1)
                        except Empty:
                            continue
                        accept(kind, name, payload)
                    still_dead = sorted(n for n in dead if n in pending)
                    if still_dead:
                        name = still_dead[0]
                        code = workers[name].exitcode
                        reap()
                        raise PartError(
                            name,
                            f"worker process died without reporting "
                            f"a result (exit code {code})",
                            fan.results,
                        )
                    continue
                accept(kind, name, payload)
        finally:
            reap()


def _fork_available() -> bool:
    """Fork start method present (Linux/macOS); spawn would have to
    pickle the pipeline and factory, which we do not require of
    callers — without fork the driver degrades to inline execution."""
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True
