"""Measure one workload in this process: timed passes, or one traced pass.

A *pass* is one complete run of the workload: inputs built from the
seed, a fresh empty caching system, and one timed call of the public
driver (``VSwitchSimulator.run``, or ``ServingDriver`` start / process
per batch / finish).  Closed loop, one client: the next packet or
micro-batch is handed over only when the previous one returns, and
simulated time comes from the trace's timestamps, never the wall clock.

``timed`` mode repeats passes until ``seconds`` of driver time have
been measured and reports the end-to-end metrics as medians over
passes.  ``traced`` mode makes one reference pass, installs the span
wrappers of :mod:`layers`, makes one traced pass over identical
inputs, and reports the per-layer metrics.  End-to-end metrics never
come from a traced pass.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.validate import CacheInvariantError, validate_cache
from repro.serve import ServeConfig, ServingDriver
from repro.sim import VSwitchSimulator

import layers
import spans
import workloads

#: Seconds :func:`machine_speed` takes on this class of box when
#: nothing else slows it; host times are reported at this speed.
REFERENCE_SPEED_S = 0.056


def machine_speed() -> float:
    """Seconds this interpreter needs for a fixed piece of pure-Python
    work (dict reads and writes, integer arithmetic, a loop) — the same
    kind of work the simulator does.

    The sandbox's speed moves in steps of up to 2x that last from a
    fraction of a second to many seconds, and a pass moves with it.
    Timing this unit right before and right after a timed section and
    scaling the section to :data:`REFERENCE_SPEED_S` takes most of that
    out (bench/README.md, "Noise", has the measurements).
    """
    start = time.perf_counter()
    for _ in range(8):
        cells = {}
        for i in range(60000):
            cells[i & 1023] = cells.get(i & 1023, 0) + i
    return time.perf_counter() - start


@dataclass
class Pass:
    """One pass.  ``setup_s``, ``wall_s`` and ``batch_ms`` are as
    measured; ``setup_scale`` and ``run_scale`` turn them into times at
    the reference machine speed."""

    setup_s: float
    wall_s: float
    cpu_s: float
    setup_scale: float
    run_scale: float
    digest: dict
    counts: dict
    batch_ms: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


def _digest(result) -> dict:
    """Simulated outcome of a pass; identical for identical inputs."""
    stats = result.stats
    return {
        "packets": result.packets,
        "hits": stats.hits,
        "misses": stats.misses,
        "insertions": stats.insertions,
        "evictions": stats.evictions,
        "rejected": stats.rejected,
        "cache_probes": result.cache_probes,
        "entry_count": result.entry_count,
        "peak_entries": result.peak_entries,
        "avg_latency_us": result.avg_latency_us,
        "avg_miss_cost_us": result.avg_miss_cost_us,
        "sharing": result.sharing,
    }


def _exact_counts(result, simulator, pipeline) -> dict:
    """Per-layer counts read through public fields after a pass."""
    packets = result.packets
    stats = result.stats
    misses = stats.misses
    fastpath = simulator.fastpath
    executed = pipeline.stats
    churn = simulator.churn.digest() if simulator.churn is not None else {}
    return {
        "sim.fastpath.memo_hit_rate": fastpath.memo_hit_rate,
        "sim.fastpath.invalidations_per_kpkt": (
            1000.0 * fastpath.invalidations / packets
        ),
        "cache.miss_share": misses / packets,
        "cache.probes_per_pkt": result.cache_probes / packets,
        "cache.insertions": stats.insertions,
        "cache.insertions_per_miss": (
            stats.insertions / misses if misses else 0.0
        ),
        "cache.evictions": stats.evictions,
        "cache.rejected": stats.rejected,
        "cache.peak_entries": result.peak_entries,
        "core.gigaflow.sharing": result.sharing or 0.0,
        "pipeline.lookups_per_miss": (
            executed.lookups / executed.executions
            if executed.executions else 0.0
        ),
        "pipeline.groups_per_miss": (
            executed.groups_probed / executed.executions
            if executed.executions else 0.0
        ),
        "sim.churn.events": churn.get("events", 0),
        "sim.churn.backlog_peak": churn.get("backlog_peak", 0),
        "core.revalidation.checked": churn.get("reval_checked", 0),
        "core.revalidation.evicted": churn.get("reval_evicted", 0),
        "core.revalidation.lookups": churn.get("reval_lookups", 0),
    }


def _conservation(workload, result, cache) -> List[str]:
    failures = []
    stats = result.stats
    if stats.hits + stats.misses != result.packets:
        failures.append(
            f"conservation: hits {stats.hits} + misses {stats.misses} "
            f"!= packets {result.packets}"
        )
    if result.entry_count > result.capacity:
        failures.append(
            f"conservation: {result.entry_count} entries exceed "
            f"capacity {result.capacity}"
        )
    if workload.system == "gigaflow":
        try:
            validate_cache(cache)
        except CacheInvariantError as error:
            failures.append(f"conservation: validate_cache: {error}")
    return failures


def run_pass(
    workload: workloads.Workload,
    seed: int,
    smoke: bool,
    tracing: Optional[layers.Tracing] = None,
) -> Pass:
    """Build inputs, then time one run of the driver over them.

    With ``tracing`` (already installed) spans are recorded for the
    timed section only.
    """
    gc.collect()
    speed_before = machine_speed()
    start = time.perf_counter()
    inputs = workloads.build_inputs(workload, seed, smoke)
    setup_s = time.perf_counter() - start

    partitioner = None
    recording = contextlib.nullcontext()
    if tracing is not None:
        partitioner = tracing.partitioner()
        tracing.oracle.pipeline = inputs.pipeline
        recording = tracing.recorder.recording()
    system = workloads.make_system(workload, smoke, partitioner)
    config = workloads.make_config(workload, inputs)
    batch_ms: List[float] = []
    gc.collect()
    speed_between = machine_speed()

    if workload.driver == "serve":
        driver = ServingDriver(
            inputs.pipeline, system, config,
            ServeConfig(batch_size=workloads.SERVE_BATCH),
        )
        simulator = driver.simulator
        clock = time.perf_counter
        record = batch_ms.append
        with recording:
            cpu_start = time.process_time()
            wall_start = clock()
            driver.start()
            for batch in inputs.batches:
                batch_start = clock()
                driver.process(batch)
                record((clock() - batch_start) * 1000.0)
            result = driver.finish()
            wall_s = clock() - wall_start
            cpu_s = time.process_time() - cpu_start
    else:
        simulator = VSwitchSimulator(inputs.pipeline, system, config)
        with recording:
            cpu_start = time.process_time()
            wall_start = time.perf_counter()
            result = simulator.run(inputs.trace)
            wall_s = time.perf_counter() - wall_start
            cpu_s = time.process_time() - cpu_start
    speed_after = machine_speed()

    return Pass(
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        setup_scale=2 * REFERENCE_SPEED_S / (speed_before + speed_between),
        run_scale=2 * REFERENCE_SPEED_S / (speed_between + speed_after),
        digest=_digest(result),
        counts=_exact_counts(result, simulator, inputs.pipeline),
        batch_ms=batch_ms,
        failures=_conservation(workload, result, system.cache),
    )


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _determinism(passes: List[Pass], labels: List[str]) -> List[str]:
    """The simulated digest and every exact count of each pass must
    equal the first pass's."""
    failures = []
    first = {**passes[0].digest, **passes[0].counts}
    for label, other in zip(labels[1:], passes[1:]):
        seen = {**other.digest, **other.counts}
        for key, value in first.items():
            if seen[key] != value:
                failures.append(
                    f"determinism: {key} {value!r} ({labels[0]}) != "
                    f"{seen[key]!r} ({label})"
                )
    return failures


def measure_timed(
    workload: workloads.Workload, seed: int, seconds: float, smoke: bool
) -> dict:
    """End-to-end metrics: medians over the passes that fit ``seconds``."""
    deadline = time.perf_counter() + seconds
    passes: List[Pass] = []
    while True:
        started = time.perf_counter()
        passes.append(run_pass(workload, seed, smoke))
        now = time.perf_counter()
        # Stop when another pass like the last would overrun the budget.
        if smoke or now + (now - started) > deadline:
            break
    labels = [f"pass {i}" for i in range(len(passes))]
    failures = [f for p in passes for f in p.failures]
    failures += _determinism(passes, labels)

    packets = passes[0].digest["packets"]
    pps = statistics.median(
        packets / (p.wall_s * p.run_scale) for p in passes
    )
    if workload.driver == "serve":
        p50, p90 = (
            statistics.median(
                spans.percentile(p.batch_ms, pct) * p.run_scale
                for p in passes
            )
            for pct in (50.0, 90.0)
        )
    else:
        # No per-batch sample on the offline driver: the mean wall time
        # of SERVE_BATCH packets, so the metric exists (and is never 0)
        # on every workload.  It carries nothing pps does not.
        p50 = p90 = 1000.0 * workloads.SERVE_BATCH / pps
    digest = passes[0].digest
    return {
        "failures": failures,
        "attempted": packets * len(passes),
        "failed": 0,
        "metrics": {
            "pps": pps,
            "batch_ms_p50": p50,
            "batch_ms_p90": p90,
            "hit_rate": digest["hits"] / packets,
            "sim_latency_us": digest["avg_latency_us"],
            "setup_s": statistics.median(
                p.setup_s * p.setup_scale for p in passes
            ),
            "peak_rss_mb": _peak_rss_mb(),
        },
        "info": {
            "passes": len(passes),
            "packets": packets,
            "digest": digest,
            "pass_wall_s": [p.wall_s for p in passes],
            "pass_run_scale": [p.run_scale for p in passes],
            "pass_setup_s": [p.setup_s for p in passes],
            "pass_setup_scale": [p.setup_scale for p in passes],
            "batch_samples": len(passes[0].batch_ms),
        },
    }


def measure_traced(
    workload: workloads.Workload, seed: int, smoke: bool, trace_path
) -> dict:
    """Per-layer metrics: exact counts from a reference pass, host time
    per span from a traced pass over the same inputs."""
    reference = run_pass(workload, seed, smoke)

    tracing = layers.Tracing(seed)
    tracing.install()
    traced = run_pass(workload, seed, smoke, tracing)
    recorder = tracing.recorder
    oracle = tracing.oracle

    failures = reference.failures + traced.failures
    failures += _determinism([reference, traced], ["untraced", "traced"])

    packets = reference.digest["packets"]
    oracle_ns = recorder.aggregates.get(layers.ORACLE_SPAN, [0, 0, 0])[1]
    # The oracle is the benchmark's own work: it is a root span, so
    # taking it out of the wall and of the named total removes it from
    # every layer's account.
    wall_ns = traced.wall_s * 1e9 - oracle_ns
    named_ns = recorder.root_ns - oracle_ns
    unknown = (
        set(recorder.aggregates) - set(layers.SPAN_NAMES)
        - {layers.ORACLE_SPAN}
    )
    if unknown:
        failures.append(f"trace: unlisted span names {sorted(unknown)}")
    self_sum = sum(recorder.self_ns(name) for name in layers.SPAN_NAMES)
    if abs(self_sum - named_ns) > 0.02 * max(named_ns, 1):
        failures.append(
            f"trace: span self times sum to {self_sum} ns, root spans "
            f"cover {named_ns} ns"
        )

    metrics = dict(reference.counts)
    metrics["sim.cpu_us_per_pkt"] = reference.cpu_s * 1e6 / packets
    metrics["serve.batch_ms_p99"] = (
        spans.percentile(reference.batch_ms, 99.0)
        if reference.batch_ms else 0.0
    )
    for name in layers.SPAN_NAMES:
        metrics[f"{name}.self_us_per_pkt"] = (
            recorder.self_ns(name) / 1000.0 / packets
        )
        metrics[f"{name}.calls_per_kpkt"] = (
            1000.0 * recorder.calls(name) / packets
        )
    metrics["sim.loop.self_us_per_pkt"] = (
        (wall_ns - named_ns) / 1000.0 / packets
    )
    # Both walls at the reference machine speed: the two passes run
    # seconds apart, and the box's speed moves in between.
    metrics["trace.overhead_ratio"] = (
        wall_ns * traced.run_scale
        / (reference.wall_s * 1e9 * reference.run_scale)
        - 1.0
    )
    metrics["trace.named_share"] = named_ns / wall_ns
    metrics["oracle.checked"] = oracle.checked
    metrics["oracle.mismatches"] = oracle.mismatches
    metrics["oracle.stale_hits"] = oracle.stale

    recorder.write(
        trace_path,
        extra={
            "workload": workload.name,
            "seed": seed,
            "packets": packets,
            "traced_wall_s": traced.wall_s,
            "untraced_wall_s": reference.wall_s,
        },
    )
    # A stale hit (revalidation pending) is the churn model working as
    # designed; any other mismatch is a wrong forwarding verdict.
    wrong = oracle.mismatches - oracle.stale
    if wrong:
        failures.append(
            f"oracle: {wrong} of {oracle.checked} sampled hits disagree "
            "with the slow path"
        )
    return {
        "failures": failures,
        "attempted": 2 * packets + oracle.checked,
        "failed": wrong,
        "metrics": metrics,
        "info": {
            "packets": packets,
            "digest": reference.digest,
            "untraced_wall_s": reference.wall_s,
            "traced_wall_s": traced.wall_s,
            "batch_samples": len(reference.batch_ms),
            "batch_supported_percentile": spans.supported_percentile(
                len(reference.batch_ms)
            ),
        },
    }
