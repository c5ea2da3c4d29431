"""The behavioural benches behind ``repro bench``: one phase table, one
runner, gates in code.

Each phase is an A/B (or a scenario) with a verdict, in the shape of the
paper's own evaluation (§6, Fig. 19).  :data:`PHASES` maps a phase
name to its report file ``BENCH_<name>.json`` and its function;
``repro bench`` generates its ``--<name>`` switches from the table and
:func:`run_phases` is the only caller.  Every run a phase makes is
built from one :class:`~repro.experiments.ExperimentScale` (workload,
trace and caching system; :data:`~repro.experiments.BENCH_SCALE` is
the default), resized where a phase needs its own size
(:func:`shards_scale`, :func:`net_scale`).  How the phases are run —
CI-sized or not, obs timing rounds, the sharded runs' time budget — is
:class:`Runner`'s, apart from the scale.  What every phase needs is here
once:

* :func:`print_row` — the one-line summary of a report row;
* the report header (machine, cores, python, numpy, git sha, scale,
  rounds, estimator), the JSON write, and
* the ``gates`` block: every verdict a phase reaches is
  ``pass | fail | skip(reason)`` under its name, and the process exits
  non-zero, naming phase and gate on stderr, when any gate fails.  There
  is no switch that lets a failed gate pass.

The verdicts are about behaviour — identical metrics, hit rates,
recovery, conservation — so the reports carry no clock: every row of
``fastpath``, ``churn`` and ``net`` is a function of code + scale +
seeds, and two runs, in any two interpreters, write the same file
outside ``header``.  Throughput is ``bench/run.py``'s job (the
benchmark of record, ``BENCHMARK.json``).
Two phases read the host's clock, because a cost on this host is what
they gate: ``obs`` (telemetry overhead, CPU seconds) and ``shards``
(per-worker CPU makespan beside the wall rate); each states its
estimator in its report header.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .experiments.common import BENCH_SCALE, SYSTEMS, ExperimentScale
from .flow import prefix_mask
from .net import FabricController, FabricSimulator, leaf_spine
from .obs import Telemetry, analyze_tracer
from .sim import ChurnConfig, ShardedSimulator, SimConfig, VSwitchSimulator
from .workload import build_fabric_endpoints, insert_delete_storm


@dataclass(frozen=True)
class Runner:
    """How :func:`run_phases` runs the phases, apart from what sizes
    them: where the reports go, whether the run is CI-sized
    (``smoke``), the obs phase's timing rounds and the sharded runs'
    wall-clock budget."""

    out: Path
    smoke: bool
    obs_rounds: int
    shard_timeout: float


def smoked(scale: ExperimentScale) -> ExperimentScale:
    """CI-sized: seconds, not minutes, same code paths."""
    return replace(
        scale,
        n_flows=min(scale.n_flows, 300),
        duration=min(scale.duration, 8.0),
        mean_flow_size=min(scale.mean_flow_size, 64.0),
    )


def churn_table(pipeline, field: str = "ip_src") -> int:
    """The deepest pipeline table matching on ``field`` — the ACL stage
    churn scenarios target (policy pushes land late in the pipeline)."""
    candidates = [
        table.table_id
        for table in pipeline.tables.values()
        if field in table.field_set
    ]
    if not candidates:
        raise SystemExit(
            f"pipeline {pipeline.name!r} has no table matching on "
            f"{field!r}; churn scenarios need one"
        )
    return max(candidates)


# -- the runner ---------------------------------------------------------------


def print_row(label: str, row: dict, *columns: str) -> None:
    """``label  hit_rate=…  column=value …`` for one report row."""
    cells = "".join(f"  {column}={row[column]}" for column in columns)
    print(f"{label:20} hit_rate={row['hit_rate']:.4f}{cells}")


def verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def skip(reason: str) -> str:
    """A gate this run cannot decide — reported, never counted as a
    pass or a failure."""
    return f"skip({reason})"


def _git_sha() -> str:
    """``git describe --always --dirty`` of the source tree: a report
    written from uncommitted code says so."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent,
            capture_output=True, text=True, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def write_json(path: Path, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")


def output_file(phase: str) -> str:
    return f"BENCH_{phase}.json"


def run_phases(
    names: Sequence[str],
    scale: ExperimentScale = BENCH_SCALE,
    out_dir: str = ".",
    smoke: bool = False,
    obs_rounds: int = 9,
    shard_timeout: float = 600.0,
) -> int:
    """Run the named phases in order, write ``out_dir/BENCH_<name>.json``
    for each, and return the process exit code: 1 when any gate failed
    (each named ``phase.gate`` on stderr), else 0.  ``smoke`` shrinks
    the scale (:func:`smoked`) and the phases' own loops."""
    runner = Runner(Path(out_dir), smoke, obs_rounds, shard_timeout)
    runner.out.mkdir(parents=True, exist_ok=True)
    if smoke:
        scale = smoked(scale)
    machine = {
        "machine": f"{platform.machine()} {platform.system()} "
        f"{platform.release()}",
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "scale": asdict(scale),
    }
    failed = []
    for name in names:
        phase = PHASES[name]
        body = phase.run(scale, runner)
        header = {
            "phase": name,
            **machine,
            "rounds": body.get("rounds", 1),
            "estimator": phase.estimator,
        }
        # Header and verdicts lead the file; the raw rows follow.
        write_json(
            runner.out / output_file(name),
            {"header": header, "gates": body["gates"], **body},
        )
        for gate, outcome in body["gates"].items():
            print(f"gate {name}.{gate}: {outcome}")
            # Anything that is not a pass or a skip fails, so a
            # malformed verdict cannot read as green.
            if outcome != "pass" and not outcome.startswith("skip("):
                failed.append(f"{name}.{gate}")
    for gate in failed:
        print(f"FAIL: bench gate {gate}", file=sys.stderr)
    return 1 if failed else 0


# -- the phases ---------------------------------------------------------------


def phase_fastpath(scale: ExperimentScale, runner: Runner) -> dict:
    """Fast-path A/B: replay one pipebench trace through each caching
    system of :data:`~repro.experiments.common.SYSTEMS` with the
    exact-match fast path on and off.  The memo may only save work, so
    hit rate and cache-probe count must not move
    (``<system>_metrics_identical``); a ``fail`` means the memo diverged
    from the full lookup path (a stale record replayed: an epoch bump
    or a validation check is missing).
    ``--capacity 16`` forces heavy eviction churn and is the
    adversarial case."""
    report = {**scale.params(), "systems": {}, "gates": {}}
    for name in SYSTEMS:
        runs = {}
        for fast in (True, False):
            # A brand-new workload and trace per variant, so no variant
            # sees a pipeline another has touched.
            workload = scale.workload()
            simulator = VSwitchSimulator(
                workload.pipeline, scale.system(name),
                SimConfig(fast_path=fast),
            )
            result = simulator.run(scale.trace(workload))
            report["packets"] = result.packets
            run = {
                "hit_rate": round(result.hit_rate, 6),
                "cache_probes": result.cache_probes,
            }
            if fast:
                fastpath = simulator.fastpath
                run["memo_hits"] = fastpath.memo_hits
                run["memo_misses"] = fastpath.memo_misses
                run["invalidations"] = fastpath.invalidations
                run["memo_hit_rate"] = round(fastpath.memo_hit_rate, 4)
            runs["fast_on" if fast else "fast_off"] = run
            print_row(
                f"{name} fast={'on' if fast else 'off'}", run, "cache_probes"
            )
        on, off = runs["fast_on"], runs["fast_off"]
        identical = (
            on["hit_rate"] == off["hit_rate"]
            and on["cache_probes"] == off["cache_probes"]
        )
        runs["metrics_identical"] = identical
        report["gates"][f"{name}_metrics_identical"] = verdict(identical)
        print(f"{name} metrics identical: {identical}")
        report["systems"][name] = runs
    return report


#: Telemetry-overhead ceilings (ROADMAP aim 4): fraction of obs_off
#: throughput a variant may cost.
OBS_CEILINGS = {"obs_metrics": 0.10, "obs_trace": 0.25}

#: Ring-buffer size of the obs_trace variant (the ``Telemetry`` default).
OBS_TRACE_CAPACITY = 65536


def phase_obs(scale: ExperimentScale, runner: Runner) -> dict:
    """Measure the telemetry subsystem's cost: off / metrics / +trace.

    All three variants keep the fast path on (the production
    configuration) and replay the identical trace, so the throughput
    deltas isolate the observability overhead.  ``obs_off`` also *is*
    the instrumented-but-disabled hot path (what the dormant hooks cost
    is the benchmark of record's to say).  Attaching telemetry must
    never change results (``metrics_identical`` / ``trace_identical``)
    and must stay under :data:`OBS_CEILINGS` (``metrics_overhead`` /
    ``trace_overhead``).

    Estimator: the overheads here are ~10-25% while shared-host timing
    noise routinely swings single runs by that much, so one run per
    variant is meaningless.  Each variant runs ``rounds`` times,
    interleaved (off/metrics/trace, repeat) so drift hits all variants
    alike; timing uses CPU seconds (``time.process_time``) to exclude
    preemption, with the garbage collector paused around the timed
    region (tuple-churn GC cycles otherwise dominate the trace delta);
    the reported figure compares per-variant *minima* — the
    least-perturbed observation of a deterministic quantity.

    A final ``trace_analyze`` step runs the flow-level analyzer
    (:mod:`repro.obs.analyze`) over the obs_trace run's ring, writing
    the report to ``TRACE_report.json`` and recording the analyzer's own
    cost — the "is `repro trace` cheap enough to run casually" number.
    """
    variants = (
        ("obs_off", lambda: None),
        ("obs_metrics", lambda: Telemetry(tracing=False)),
        ("obs_trace", lambda: Telemetry(
            tracing=True, trace_capacity=OBS_TRACE_CAPACITY
        )),
    )
    rounds = runner.obs_rounds
    report = {
        **scale.params(),
        "system": "gigaflow",
        "rounds": rounds,
        "runs": {},
        "gates": {},
    }
    best_cpu = {name: float("inf") for name, _ in variants}
    best_wall = dict(best_cpu)
    last = {}
    for _ in range(rounds):
        for name, make_telemetry in variants:
            workload = scale.workload()
            trace = scale.trace(workload)
            telemetry = make_telemetry()
            simulator = VSwitchSimulator(
                workload.pipeline, scale.system("gigaflow"),
                SimConfig(fast_path=True, telemetry=telemetry),
            )
            # Both clocks around the run alone, collector cycles kept
            # out of the timed region (see "Estimator" above).
            gc.collect()
            gc.disable()
            try:
                wall0 = time.perf_counter()
                cpu0 = time.process_time()
                result = simulator.run(trace)
                cpu = time.process_time() - cpu0
                wall = time.perf_counter() - wall0
            finally:
                gc.enable()
            best_cpu[name] = min(best_cpu[name], cpu)
            best_wall[name] = min(best_wall[name], wall)
            last[name] = (result, telemetry)

    baseline = None
    reference = None
    for name, _ in variants:
        result, telemetry = last[name]
        pps = result.packets / best_cpu[name]
        run = {
            "seconds": round(best_wall[name], 3),
            "cpu_seconds": round(best_cpu[name], 3),
            "packets_per_sec": round(pps, 1),
            "hit_rate": round(result.hit_rate, 6),
            "cache_probes": result.cache_probes,
        }
        if telemetry is not None:
            run["trace_events"] = telemetry.tracer.emitted
        extra = ""
        if baseline is None:
            baseline = pps
            reference = (run["hit_rate"], run["cache_probes"])
        else:
            run["overhead_vs_off"] = round(1.0 - pps / baseline, 4)
            run["metrics_identical"] = (
                (run["hit_rate"], run["cache_probes"]) == reference
            )
            gate = name[len("obs_"):]
            report["gates"][f"{gate}_overhead"] = verdict(
                run["overhead_vs_off"] <= OBS_CEILINGS[name]
            )
            report["gates"][f"{gate}_identical"] = verdict(
                run["metrics_identical"]
            )
            extra = f"  overhead={run['overhead_vs_off']:+.1%}"
        report["runs"][name] = run
        print(f"{name:12} {best_cpu[name]:6.2f}s cpu  {pps:>9,.0f} pps{extra}")

    # trace_analyze: the analyzer's own cost over the live ring.
    trace_path = runner.out / "TRACE_report.json"
    cpu0 = time.process_time()
    trace_report = analyze_tracer(last["obs_trace"][1].tracer, top=5)
    analyze_cpu = time.process_time() - cpu0
    analyzed = trace_report["events"]
    report["trace_analyze"] = {
        "cpu_seconds": round(analyze_cpu, 4),
        "events_analyzed": analyzed,
        "events_per_sec": round(analyzed / analyze_cpu, 1)
        if analyze_cpu > 0
        else None,
        "report_path": str(trace_path),
    }
    print(f"trace_analyze {analyze_cpu:6.2f}s cpu  {analyzed} events")
    write_json(trace_path, trace_report)
    suggestion = trace_report["reorder_suggestion"].get("suggestion")
    deepest = trace_report["pathological"]["deepest_chains"]
    if deepest:
        worst = deepest[0]
        print(f"  deepest chain: flow {worst['flow']} "
              f"(max_depth={worst['max_depth']}, "
              f"packets={worst['packets']})")
    if suggestion:
        print(f"  reorder: {suggestion}")
    return report


def phase_shards(scale: ExperimentScale, runner: Runner) -> dict:
    """Core-scaling bench: one trace through 1/2/4/8 worker processes.

    Replays a single locality-heavy trace (>=1M packets at the default
    scale) through the sharded engine at increasing worker counts.
    Each worker owns a *full-size* cache — the multi-engine datapath
    layout of off-path SmartNICs (PAPERS.md, "Demystifying Datapath
    Accelerator..."), where every engine carries its own cache over its
    RSS slice of the flow space.  Sharding still costs something real:
    hash partitioning severs cross-shard sub-traversal sharing, so the
    merged miss count rises with workers — the ``hit_rate`` column
    prices that loss honestly while ``packets_per_sec`` shows the
    compute scaling.

    Throughput accounting: each worker reports its own
    ``time.process_time()`` CPU seconds, and the headline
    ``packets_per_sec`` is ``total packets / max(worker CPU seconds)``
    — the makespan of the slowest worker, i.e. the throughput of a
    deployment that gives every worker a dedicated core.  On a box with
    fewer cores than workers the OS time-slices them, so *wall-clock*
    pps (also recorded) cannot show the scaling, and the CPU-second
    model is a model, not a measurement: the ``scaling_ok`` gate
    (4-worker speedup >= 3x) is then ``skip``, never ``pass``.  It is
    also ``skip`` under ``--smoke``, which stops at 2 workers.

    The ``metrics_identical`` gate pins losslessness: the
    processes-mode merged counters must equal an inline (sequential,
    single-process) run of the identical partitioned protocol.
    """
    if runner.smoke:
        counts = (1, 2)
    else:
        scale = shards_scale(scale)
        counts = (1, 2, 4, 8)
    identity_count = counts[-1] if runner.smoke else 4
    workload = scale.workload()
    trace = scale.trace(workload)
    cores = os.cpu_count() or 1

    def factory(context):
        # Full structural capacity per engine (multi-engine layout);
        # splitting capacity/shards instead conflates eviction churn
        # with the compute scaling this bench isolates.
        return scale.system("gigaflow")

    report = {
        **scale.params(),
        "packets": len(trace),
        "cores_available": cores,
        "throughput_model": (
            "packets_per_sec = packets / max(per-worker CPU seconds): "
            "dedicated-core makespan from time.process_time(), immune "
            "to time-slicing when workers > cores; wall_packets_per_sec "
            "is the observed single-box wall rate"
        ),
        "runs": {},
    }
    print(f"shards: {len(trace):,} packets, capacity {scale.capacity}, "
          f"{cores} core(s) available")

    merged_results = {}
    baseline_pps = None
    for count in counts:
        driver = ShardedSimulator(
            workload.pipeline,
            factory,
            SimConfig(fast_path=True),
            shards=count,
            mode="processes",
            timeout=runner.shard_timeout,
        )
        wall0 = time.perf_counter()
        result = driver.run(trace)
        wall = time.perf_counter() - wall0
        merged_results[count] = result
        cpu_each = [t["cpu_seconds"] for t in driver.shard_timings]
        cpu_max = max(cpu_each)
        pps = result.packets / cpu_max if cpu_max else 0.0
        if baseline_pps is None:
            baseline_pps = pps
        entry = {
            "workers": count,
            "cpu_seconds_max": round(cpu_max, 3),
            "cpu_seconds_total": round(sum(cpu_each), 3),
            "wall_seconds": round(wall, 3),
            "packets_per_sec": round(pps, 1),
            "wall_packets_per_sec": round(
                result.packets / wall if wall else 0.0, 1
            ),
            "speedup_vs_1": round(pps / baseline_pps, 2)
            if baseline_pps
            else 0.0,
            "hit_rate": round(result.hit_rate, 6),
            "misses": result.misses,
            "cache_probes": result.cache_probes,
            # Merged across workers: peaks need not be simultaneous,
            # so the scalar is an upper bound — the exact per-worker
            # peaks ride alongside.
            "peak_entries_upper_bound": result.peak_entries,
            "peak_entries_exact": result.peak_entries_exact,
            "peak_entries_per_shard": list(
                result.peak_entries_per_shard or (result.peak_entries,)
            ),
        }
        report["runs"][f"workers_{count}"] = entry
        print(f"workers={count}  cpu_max={cpu_max:6.2f}s  "
              f"{pps:>9,.0f} pps  "
              f"speedup={entry['speedup_vs_1']:.2f}x  "
              f"hit_rate={result.hit_rate:.4f}")

    # Losslessness: processes-mode merge vs the identical partitioned
    # protocol run sequentially in one process.
    inline = ShardedSimulator(
        workload.pipeline,
        factory,
        SimConfig(fast_path=True),
        shards=identity_count,
        mode="inline",
    ).run(trace)
    procs = merged_results[identity_count]
    identical = (
        procs.stats == inline.stats
        and procs.packets == inline.packets
        and procs.cache_probes == inline.cache_probes
        and procs.avg_latency_us == inline.avg_latency_us
    )
    report["metrics_identical"] = {
        "workers": identity_count,
        "identical": identical,
        "hit_rate": round(procs.hit_rate, 6),
        "inline_hit_rate": round(inline.hit_rate, 6),
    }
    report["gates"] = {
        "metrics_identical": verdict(identical),
        "scaling_ok": scaling_gate(cores, report["runs"]),
    }
    print(f"metrics identical at {identity_count} workers: {identical}")
    return report


def shards_scale(scale: ExperimentScale) -> ExperimentScale:
    """The full-size shards phase's scale: >=1M packets (12.5k flows x
    128 packets/flow mean, discounted ~35% by the duration window
    cutting off late-starting flows).  A capacity left to the scale's
    default follows the raised flow count."""
    return replace(
        scale,
        n_flows=max(scale.n_flows, 12500),
        mean_flow_size=max(scale.mean_flow_size, 128.0),
        duration=max(scale.duration, 30.0),
    )


def scaling_gate(cores: int, runs: dict) -> str:
    """4-worker modelled speedup >= 3x — decided only where 4 workers
    ran (not under --smoke) on a box that can run them side by side."""
    if "workers_4" not in runs:
        return skip("smoke")
    if cores < 4:
        return skip("cores_available < workers")
    return verdict(runs["workers_4"]["speedup_vs_1"] >= 3.0)


#: Ceiling on the churn phase's deepest single-window dip.  Calibrated
#: for --smoke, where the storm denies a large share of the tiny flow
#: pool so transition windows dip ~0.20; at full scale the same storm's
#: worst window is ~0.02.
MAX_WINDOW_DIP = 0.35


def phase_churn(scale: ExperimentScale, runner: Runner) -> dict:
    """Measure the hit-rate dip and recovery under an insert/delete storm.

    Two identically seeded Gigaflow runs over the same trace: a quiet
    baseline and one with an insert/delete storm of ACL denies pushed
    into the pipeline mid-trace (plus budgeted incremental
    revalidation).  Every insert and delete bumps the pipeline
    generation and strands cached entries; the report quantifies the
    damage as a *dip* (baseline hit rate minus churn hit rate over the
    storm span), a *recovery time* (first post-storm window back within
    one point of baseline), and the revalidation backlog's peak and
    final residue.  The gates: the storm must not leave a lasting
    hit-rate deficit (``recovered``) or an undrained revalidation
    backlog (``backlog_drained``), and the worst window stays under
    :data:`MAX_WINDOW_DIP` (``window_dip_bounded``).
    """
    duration = scale.duration
    window = max(duration / 32.0, 0.125)
    storm_start = duration * 0.25
    storm_end = duration * 0.55
    storm_count = 24 if not runner.smoke else 12
    gap = (storm_end - storm_start) / storm_count
    hold = 2.0 * gap
    reval_budget = 32

    def run(with_churn: bool):
        workload = scale.workload()
        trace = scale.trace(workload)
        churn = None
        if with_churn:
            # Aim the storm at the hottest sources: an ACL push against
            # busy tenants is the churn case that actually moves the
            # hit rate (denies on cold flows strand entries nobody was
            # hitting).
            _times, flow_indices, _sizes = trace.columns()
            packets_per_flow = np.bincount(
                flow_indices, minlength=len(workload.pilots)
            )
            hottest = np.argsort(packets_per_flow)[::-1][: storm_count * 2]
            schedule = insert_delete_storm(
                [workload.pilots[i] for i in hottest],
                churn_table(workload.pipeline),
                start=storm_start,
                count=storm_count,
                gap=gap,
                hold=hold,
                seed=scale.seed,
                mask=prefix_mask(16),
            )
            churn = ChurnConfig(schedule=schedule, reval_budget=reval_budget)
        simulator = VSwitchSimulator(
            workload.pipeline,
            scale.system("gigaflow"),
            SimConfig(
                max_idle=duration / 4.0,
                sweep_interval=window,
                window=window,
                churn=churn,
            ),
        )
        return simulator.run(trace), simulator

    baseline, _ = run(with_churn=False)
    churned, simulator = run(with_churn=True)
    digest = simulator.churn.digest()

    def span_rate(result, start, stop):
        return result.series.hit_rate_between(start, stop)

    storm_span = (storm_start, storm_end + hold)
    dip_depth = round(
        span_rate(baseline, *storm_span) - span_rate(churned, *storm_span), 6
    )
    # Per-window deltas from the first insert to the end of the run.
    # The churn run can even beat baseline *during* the storm (one
    # coarse deny entry serves a whole subnet — wildcard sharing); the
    # costs are the transition waves, each delete stranding the deny
    # path's entries for the revalidator to chew through.  The deepest
    # single window is the dip operators feel; the *settle point* is
    # when the deltas stop exceeding the recovery threshold for good.
    threshold = 0.02
    deltas = []
    t = storm_start
    while t < duration:
        deltas.append((
            t,
            span_rate(baseline, t, t + window)
            - span_rate(churned, t, t + window),
        ))
        t += window
    max_window_dip = round(max((d for _, d in deltas), default=0.0), 6)
    settle_at = None
    for i, (t, _delta) in enumerate(deltas):
        if all(later <= threshold for _, later in deltas[i:]):
            settle_at = t
            break
    recovery_seconds = (
        round(max(0.0, settle_at - (storm_end + hold)), 6)
        if settle_at is not None
        else None
    )
    # The settled stretch must genuinely sit at baseline — and must
    # exist: a settle point in the run's final window would mean the
    # run ended before recovery was demonstrated.
    settled = (
        settle_at is not None and settle_at <= duration - 2 * window
    )
    recovery_delta = (
        round(
            span_rate(baseline, settle_at, duration)
            - span_rate(churned, settle_at, duration),
            6,
        )
        if settled
        else None
    )

    settled_text = (
        f"settled {recovery_seconds:.2f}s after the storm "
        f"(delta {recovery_delta:+.4f})"
        if settled
        else "did not settle before the run ended"
    )
    print(f"churn storm: {storm_count} denies over "
          f"[{storm_start:.1f}s, {storm_end:.1f}s)  "
          f"dip={dip_depth:+.4f} (worst window {max_window_dip:+.4f})  "
          f"{settled_text}  "
          f"backlog_peak={digest['backlog_peak']}  "
          f"reval_evicted={digest['reval_evicted']}")
    return {
        **scale.params(),
        "window": window,
        "storm": {
            "start": storm_start,
            "end": storm_end,
            "count": storm_count,
            "gap": round(gap, 6),
            "hold": round(hold, 6),
            "reval_budget": reval_budget,
        },
        "baseline_hit_rate": round(baseline.hit_rate, 6),
        "churn_hit_rate": round(churned.hit_rate, 6),
        "dip_depth": dip_depth,
        "max_window_dip": max_window_dip,
        "recovery_delta": recovery_delta,
        "recovery_seconds": recovery_seconds,
        "churn": digest,
        "recovery_threshold": threshold,
        "gates": {
            "recovered": verdict(settled and recovery_delta <= threshold),
            "backlog_drained": verdict(
                digest["backlog"] == 0 and digest["pending_events"] == 0
            ),
            "window_dip_bounded": verdict(max_window_dip <= MAX_WINDOW_DIP),
        },
    }


#: Fraction of the net phase's flows whose endpoints share a leaf: low
#: enough that most flows cross a spine.
NET_LOCALITY = 0.25

#: The net phase's flow floor.  At 300 flows (``--smoke``) a switch's
#: four LTM tables hold 22 rules each and the leaves fill to capacity
#: too, so nothing separates the tiers but how long stranded chain heads
#: survive — and a full cache that never inserts never evicts one.
NET_MIN_FLOWS = 1200

#: The net phase's leaf/spine fabric.
NET_LEAVES, NET_SPINES = 8, 2


def net_loads(flows: int) -> Tuple[float, float]:
    """The distinct flows a leaf and a spine of the net phase's fabric
    are expected to carry."""
    cross = 1.0 - NET_LOCALITY
    per_leaf_load = flows * (NET_LOCALITY + 2 * cross) / NET_LEAVES
    per_spine_load = flows * cross / NET_SPINES
    return per_leaf_load, per_spine_load


def net_scale(scale: ExperimentScale) -> ExperimentScale:
    """The net phase's scale: at least :data:`NET_MIN_FLOWS` flows, and
    a per-switch capacity midway between a leaf's and a spine's load —
    leaves under capacity, spines over it."""
    flows = max(scale.n_flows, NET_MIN_FLOWS)
    per_leaf_load, per_spine_load = net_loads(flows)
    return replace(
        scale,
        n_flows=flows,
        cache_capacity=max(int((per_leaf_load + per_spine_load) / 2), 8),
    )


def phase_net(scale: ExperimentScale, runner: Runner) -> dict:
    """Fabric spine-pressure bench: leaf vs spine hit rates.

    One trace crosses a leaf/spine fabric (:mod:`repro.net`) whose
    switches all carry *identically sized* caches, with endpoint
    locality (:data:`NET_LOCALITY`) low enough that most flows cross a
    spine.  With ``L`` leaves, ``S`` spines and cross-leaf fraction
    ``c``, each leaf holds about ``(1 - c + 2c) / L`` of the distinct
    flows while each spine holds ``c / S`` — at ``L=8, S=2, c=0.75``
    the spines carry ~1.7x the per-leaf flow load.  Per-switch capacity
    is sized *between* those two loads (:func:`net_scale`), so the
    leaves fit comfortably while the spines run under genuine capacity
    pressure: the leaf-vs-spine hit-rate gap is the aggregation-pressure
    signal ``spine_pressure_ok`` gates on.  Hop accounting must conserve
    (``conservation_ok``), and the merged peak must be flagged as a
    bound, never as an observed value (``peak_is_bound``).  The flow
    count is held at :data:`NET_MIN_FLOWS` or more, whatever scale was
    asked for, so the leaves keep room to spare.
    """
    scale = net_scale(scale)
    per_leaf_load, per_spine_load = net_loads(scale.n_flows)
    topology = leaf_spine(NET_LEAVES, NET_SPINES)

    trace = scale.trace(scale.workload())
    endpoints = build_fabric_endpoints(
        topology, scale.n_flows, locality=NET_LOCALITY, seed=scale.seed
    )
    fabric = FabricSimulator(
        topology,
        pipeline_factory=lambda _context: scale.workload().pipeline,
        # Identical sizing across roles on purpose: the hit-rate gap
        # then measures pressure, not provisioning.
        system_factory=lambda _context: scale.system("gigaflow"),
        controller=FabricController(topology, endpoints),
        config=SimConfig(fast_path=True, telemetry=Telemetry()),
    )
    fres = fabric.run(trace)

    merged = fres.merged
    by_role = fres.hit_rate_by_role()
    gap = by_role["leaf"] - by_role["spine"]
    params = scale.params()
    params["capacity_per_switch"] = params.pop("capacity")
    report = {
        **params,
        "leaves": NET_LEAVES,
        "spines": NET_SPINES,
        "net_locality": NET_LOCALITY,
        "expected_flow_load": {
            "per_leaf": round(per_leaf_load, 1),
            "per_spine": round(per_spine_load, 1),
        },
        **fres.digest(),
        "leaf_spine_gap": round(gap, 6),
        "gates": {
            # Gap must clear noise: spines are the pressured tier.
            "spine_pressure_ok": verdict(gap >= 0.01),
            "conservation_ok": verdict(fres.hops_total == merged.packets),
            "peak_is_bound": verdict(not merged.peak_entries_exact),
        },
    }
    print(f"net: {topology.name}  {fres.packets:,} packets -> "
          f"{fres.hops_total:,} hop traversals")
    print(f"net: per-switch capacity {scale.capacity} "
          f"(leaf load ~{per_leaf_load:.0f}, "
          f"spine load ~{per_spine_load:.0f})")
    print(f"net: hit_rate leaf={by_role['leaf']:.4f} "
          f"spine={by_role['spine']:.4f} gap={gap:+.4f}")
    print(f"net: fabric {merged.peak_entries_label()} (exact per switch: "
          f"{list(report['peak_entries_per_switch'].values())})")
    return report


# -- the table ----------------------------------------------------------------


@dataclass(frozen=True)
class Phase:
    """One row of :data:`PHASES`.  ``help`` is the ``--<name>`` switch's
    help text; a phase without one always runs."""

    run: Callable[[ExperimentScale, Runner], dict]
    help: Optional[str] = None
    estimator: str = "untimed: seeded runs, behaviour only"


PHASES: Dict[str, Phase] = {
    "fastpath": Phase(phase_fastpath),
    "obs": Phase(
        phase_obs,
        estimator="per-variant minimum CPU seconds over interleaved "
        "rounds, garbage collector paused",
    ),
    "shards": Phase(
        phase_shards,
        "also run the sharded-engine core-scaling phase "
        "(1/2/4/8 worker processes over one trace)",
        estimator="modelled pps = packets / slowest worker's CPU "
        "seconds; wall pps alongside; one run per worker count",
    ),
    "churn": Phase(
        phase_churn,
        "also measure the hit-rate dip and recovery under a mid-trace "
        "insert/delete storm with budgeted incremental revalidation",
    ),
    "net": Phase(
        phase_net,
        "also run the fabric spine-pressure phase: one trace through "
        "an 8x2 leaf/spine fabric with identically sized per-switch "
        "caches (spine vs leaf hit rates)",
    ),
}
