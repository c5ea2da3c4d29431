"""Command-line interface: ``python -m repro <command>``.

Commands
--------
pipelines
    List the Table 1 pipeline specs.
compare
    Run Megaflow vs Gigaflow on one pipeline and print the comparison.
sweep
    Fig. 3/14-style sweep of the Gigaflow table count.
coverage
    Table 2-style rule-space coverage for one pipeline.
bench
    The behavioural A/B gates: every phase in
    :data:`repro.gates.PHASES` writes ``BENCH_<phase>.json`` (shared
    header, raw rows, a ``gates`` block) under ``--out-dir``; the exit
    code is non-zero when any gate fails.  ``fastpath`` and ``obs``
    always run, ``--<phase>`` adds each of the others, ``--smoke``
    shrinks it all for CI.  Each phase's docstring in
    :mod:`repro.gates` says what it compares and why.
net
    Multi-switch fabric simulation (:mod:`repro.net`): one cache per
    hop along ECMP-spread shortest paths over a leaf/spine, linear or
    ring topology, with optional mid-run link failures
    (``--fail-link A:B:TIME``) and per-switch/per-role hit rates.
stats
    Run one simulation with telemetry attached and export the
    metrics (Prometheus text, JSON, or a rendered table); ``--trace-out``
    streams per-packet trace events to a JSONL file.
serve
    Live serving mode (:mod:`repro.serve`): stream an unbounded
    generated workload through the engine in micro-batches, optionally
    scrapeable over HTTP (``--http``) and under control-plane churn
    (``--storm``, ``--acl-update``, ``--shuffle``);
    ``--assert-drained`` turns the run into a CI soak gate.

Every command but ``pipelines`` and ``trace`` runs at one
:class:`~repro.experiments.ExperimentScale` (:func:`scale_from_args`):
``compare`` / ``sweep`` / ``coverage`` start from the paper drivers'
:data:`~repro.experiments.SMALL_SCALE`, the trace-replaying commands
(``bench``, ``stats``, ``serve``, ``net``) from
:data:`~repro.experiments.BENCH_SCALE`, and the scale flags override
its fields.  For the full per-figure report, run
``examples/reproduce_all.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import List, Optional

from .core.revalidation import IncrementalRevalidator
from .experiments import (
    BENCH_SCALE,
    SMALL_SCALE,
    SYSTEMS,
    ExperimentScale,
    format_table1,
    format_table2,
    run_pair,
    sweep_tables,
    table2_coverage,
)
from .gates import PHASES, churn_table, run_phases
from .net import FabricController, FabricSimulator, leaf_spine, linear, ring
from .obs import EVENTS, Telemetry, analyze_jsonl, render_text
from .pipeline.library import PIPELINES
from .report import render_telemetry
from .serve import ServeConfig, ServingDriver, endless_packets
from .sim import ChurnConfig, SimConfig, VSwitchSimulator
from .workload import (
    acl_update_schedule,
    build_fabric_endpoints,
    insert_delete_storm,
    priority_shuffle_schedule,
)
from .workload.churn import ChurnSchedule


def _bounded(kind, noun: str, low, high=None, inclusive: bool = False):
    """An argparse ``type=`` for a number above ``low`` (or at it, when
    ``inclusive``) and at most ``high``, so a bad value exits 2 naming
    its flag instead of raising from deep inside a constructor."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None  # unparsable text gets the same message
        if value is None or not (
            (value >= low if inclusive else value > low)  # NaN fails
            and (high is None or value <= high)
        ):
            raise argparse.ArgumentTypeError(f"must be {noun}")
        return value

    return parse


_positive_int = _bounded(int, "a positive integer", 0)
_positive_float = _bounded(float, "a positive number", 0)
_non_negative_int = _bounded(int, "a non-negative integer", 0, inclusive=True)
_non_negative_float = _bounded(
    float, "a non-negative number", 0, inclusive=True
)
_fraction = _bounded(float, "a number in [0, 1]", 0, 1, inclusive=True)
_port = _bounded(int, "a port in [0, 65535]", 0, 65535, inclusive=True)


class _FlagError(Exception):
    """A flag value only its command can judge (a ring's length, a link
    of the topology it builds): :func:`main` reports it as argparse
    reports the others — usage, the flag's name, exit 2."""

    def __init__(self, flag: str, message: str):
        super().__init__(f"argument {flag}: {message}")


def _link_failure(text: str):
    """An argparse ``type=`` for ``--fail-link A:B:TIME``: the
    ``(time, a, b)`` a :class:`~repro.net.FabricSimulator` takes."""
    try:
        a, b, at = text.split(":")
        return float(at), a, b
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected A:B:TIME, got {text!r}"
        ) from None


def _readable_file(path: str) -> str:
    """An argparse ``type=`` for an input file: it must open."""
    try:
        with open(path, encoding="utf-8"):
            pass
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot read {path!r}: {exc.strerror}"
        ) from None
    return path


def _writable_path(path: str) -> str:
    """An argparse ``type=`` for an output file: its directory must
    exist and take a new file, so a bad path exits 2 before the run
    rather than failing once the run is done."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        problem = "no such directory"
    elif not os.access(directory, os.W_OK | os.X_OK):
        problem = "directory not writable"
    elif os.path.isdir(path):
        problem = "is a directory"
    else:
        return path
    raise argparse.ArgumentTypeError(f"cannot write {path!r}: {problem}")


def _trace_events(text: str) -> List[str]:
    """An argparse ``type=`` for ``--trace-events``: the comma-separated
    names, each one of :data:`repro.obs.trace.EVENTS`, so a misspelt
    event exits 2 instead of tracing nothing."""
    names = [name.strip() for name in text.split(",")]
    valid = [name for name, _ in EVENTS]
    unknown = [name for name in names if name not in valid]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown trace event {', '.join(map(repr, unknown))} "
            f"(valid: {', '.join(valid)})"
        )
    return names


def _add_scale_arguments(
    parser: argparse.ArgumentParser,
    flows: int = SMALL_SCALE.n_flows,
    capacity: str = "flows/3",
    mean_flow_size: Optional[float] = None,
    duration: Optional[float] = None,
) -> None:
    """The pipeline positional plus the workload-scale block every
    subcommand shares; only the defaults differ.  Giving
    ``mean_flow_size``/``duration`` marks a trace-replaying command:
    the pipeline then defaults to PSC and the trace knobs are added.
    :data:`_SCALE_FLAGS` names the scale field each one sets."""
    replay = mean_flow_size is not None
    parser.add_argument(
        "pipeline",
        choices=[p.lower() for p in PIPELINES] + list(PIPELINES),
        **({"nargs": "?", "default": "psc"} if replay else {}),
    )
    parser.add_argument(
        "--flows", type=_positive_int, default=flows,
        help=f"unique flow classes (default {flows})",
    )
    parser.add_argument(
        "--capacity", type=_positive_int, default=None,
        help=f"total cache entries (default {capacity})",
    )
    parser.add_argument(
        "--locality", choices=("high", "low"), default="high",
        help="workload reuse locality",
    )
    parser.add_argument(
        "--seed", type=_non_negative_int, default=SMALL_SCALE.seed
    )
    if replay:
        parser.add_argument(
            "--mean-flow-size", type=_positive_float,
            default=mean_flow_size,
            help=f"mean packets per flow (default {mean_flow_size:g})",
        )
        parser.add_argument(
            "--duration", type=_positive_float, default=duration,
            help=f"simulated seconds of trace (default {duration:g})",
        )
        parser.add_argument(
            "--trace-seed", type=_non_negative_int,
            default=BENCH_SCALE.trace_seed,
        )


#: Each scale flag's ``dest`` -> the :class:`ExperimentScale` field it
#: sets (``--max-idle`` is ``stats`` / ``serve`` / ``net``'s).
_SCALE_FLAGS = {
    "pipeline": "pipeline",
    "flows": "n_flows",
    "capacity": "cache_capacity",
    "locality": "locality",
    "seed": "seed",
    "mean_flow_size": "mean_flow_size",
    "duration": "duration",
    "trace_seed": "trace_seed",
    "max_idle": "max_idle",
}


def scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    """The scale a command's flags describe: its preset with every
    scale flag the namespace carries applied.  A command
    replaying its own trace (it has ``--trace-seed``) starts from
    :data:`BENCH_SCALE`, whose unset capacity is twice the flow count;
    the figure commands start from :data:`SMALL_SCALE`, and an unset
    capacity is a third of the flows (at least 8), the paper's
    flow:capacity ratio."""
    given = {
        field: getattr(args, dest)
        for dest, field in _SCALE_FLAGS.items()
        if hasattr(args, dest)
    }
    if hasattr(args, "trace_seed"):
        return replace(BENCH_SCALE, **given)
    if given["cache_capacity"] is None:
        given["cache_capacity"] = max(given["n_flows"] // 3, 8)
    return replace(SMALL_SCALE, **given)


def cmd_pipelines(_args: argparse.Namespace) -> int:
    print(format_table1())
    print()
    for name, spec in sorted(PIPELINES.items()):
        print(f"{name}: {spec.description}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    scale = scale_from_args(args)
    pair = run_pair(args.pipeline.upper(), args.locality, scale)
    print(f"{args.pipeline.upper()} ({args.locality} locality, "
          f"{scale.n_flows} flows, {scale.cache_capacity} entries)\n")
    for result in (pair.megaflow, pair.gigaflow):
        print(result.summary())
    print(f"\nhit-rate gain: {pair.hit_rate_gain:+.2%}")
    print(f"miss reduction: {pair.miss_reduction:.1%}")
    print(f"entry reduction: {pair.entry_reduction:.1%}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scale = scale_from_args(args)
    points = sweep_tables(
        args.pipeline.upper(), tuple(args.tables), args.locality, scale
    )
    print(f"{'K':>3}{'misses':>9}{'hit rate':>10}{'entries':>9}"
          f"{'coverage':>12}")
    for point in points:
        print(f"{point.k_tables:>3}{point.misses:>9}"
              f"{point.hit_rate:>10.4f}{point.peak_entries:>9}"
              f"{point.coverage:>12}")
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    scale = scale_from_args(args)
    rows = table2_coverage(
        pipelines=(args.pipeline.upper(),), locality=args.locality,
        scale=scale,
    )
    print(format_table2(rows))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    names = [
        name for name, phase in PHASES.items()
        if phase.help is None or getattr(args, name)
    ]
    return run_phases(
        names, scale_from_args(args), args.out_dir, smoke=args.smoke,
        obs_rounds=args.obs_rounds, shard_timeout=args.shard_timeout,
    )


def cmd_stats(args: argparse.Namespace) -> int:
    scale = scale_from_args(args)
    system = scale.system(args.system)
    telemetry = Telemetry(
        trace_capacity=args.trace_capacity,
        tracing=args.format == "text" or args.trace_out is not None,
        trace_sink=args.trace_out,
        trace_events=args.trace_events,
    )
    workload = scale.workload()
    config = SimConfig(
        max_idle=scale.max_idle,
        sweep_interval=args.sweep_interval,
        telemetry=telemetry,
    )
    result = VSwitchSimulator(workload.pipeline, system, config).run(
        scale.trace(workload)
    )

    # One end-of-run revalidation cycle so consistency counters reflect
    # a full operational loop (lookup → install → sweep → revalidate).
    # The hierarchy revalidates its Megaflow level (its Microflow
    # entries are derived from it).
    cache = system.cache
    IncrementalRevalidator(
        workload.pipeline, getattr(cache, "megaflow", cache)
    ).revalidate(now=scale.duration)

    if args.format == "prom":
        print(telemetry.registry.to_prometheus(), end="")
    elif args.format == "json":
        payload = {
            "metrics": telemetry.registry.to_json(),
            "snapshots": [s.to_dict() for s in telemetry.snapshots],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(result.summary())
        print()
        print(render_telemetry(telemetry))
    if args.trace_out:
        telemetry.close()
        print(f"wrote trace events to {args.trace_out}", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    scale = scale_from_args(args)
    workload = scale.workload()
    duration = scale.duration

    # Churn scenarios place themselves proportionally inside the
    # serving horizon: storm over [20%, 60%], ACL push at 30% reverted
    # at 70%, shuffles at 45% and 75%.
    schedule = ChurnSchedule([])
    if args.storm or args.acl_update or args.shuffle:
        table_id = churn_table(workload.pipeline)
        if args.storm:
            start, end = duration * 0.2, duration * 0.6
            gap = (end - start) / args.storm_count
            schedule = schedule.merged_with(insert_delete_storm(
                workload.pilots, table_id,
                start=start, count=args.storm_count, gap=gap,
                hold=2.0 * gap, seed=scale.seed,
            ))
        if args.acl_update:
            schedule = schedule.merged_with(acl_update_schedule(
                table_id, duration * 0.3, revert_at=duration * 0.7,
            ))
        if args.shuffle:
            schedule = schedule.merged_with(priority_shuffle_schedule(
                table_id, [duration * 0.45, duration * 0.75],
                seed=scale.seed,
            ))
    churn = (
        ChurnConfig(schedule=schedule, reval_budget=args.reval_budget)
        if len(schedule)
        else None
    )

    config = SimConfig(
        max_idle=scale.max_idle,
        sweep_interval=args.sweep_interval,
        window=args.sweep_interval,
        telemetry=Telemetry(),
        churn=churn,
    )
    driver = ServingDriver(
        workload.pipeline,
        scale.system(args.system),
        config,
        ServeConfig(
            batch_size=args.batch_size,
            http=args.http,
            http_host=args.host,
            http_port=args.port,
        ),
    )
    driver.start()
    if driver.metrics_server is not None:
        print(f"metrics endpoint: {driver.metrics_server.url}")
    # The unbounded source is generated a segment at a time.
    profile = replace(scale, duration=args.segment_duration).trace_profile()
    result = driver.serve(
        endless_packets(workload, profile=profile, seed=scale.trace_seed),
        max_seconds=duration,
    )

    print(f"served {result.packets} packets over "
          f"{driver.now:.1f} simulated seconds "
          f"({args.system}, {scale.spec.name})")
    print(f"hit_rate={result.hit_rate:.4f}  "
          f"{result.peak_entries_label()}  "
          f"capacity={result.capacity}")
    if churn is not None:
        digest = driver.churn.digest()
        print(f"churn: {digest['events']} events "
              f"({digest['events_by_kind']})  "
              f"rule_ops={digest['rule_ops']}")
        print(f"revalidation: {digest['reval_ticks']} ticks  "
              f"checked={digest['reval_checked']}  "
              f"evicted={digest['reval_evicted']}  "
              f"backlog={digest['backlog']} "
              f"(peak {digest['backlog_peak']})")
        if args.assert_drained and (
            digest["backlog"] != 0 or digest["pending_events"] != 0
        ):
            print("FAIL: revalidation backlog did not drain "
                  f"(backlog={digest['backlog']}, "
                  f"pending_events={digest['pending_events']})")
            return 1
    return 0


def cmd_net(args: argparse.Namespace) -> int:
    """Run one trace through a multi-switch fabric (:mod:`repro.net`)."""
    scale = scale_from_args(args)
    if args.topology == "leaf-spine":
        topology = leaf_spine(args.leaves, args.spines)
    elif args.topology == "linear":
        topology = linear(args.length)
    elif args.length < 3:
        raise _FlagError("--length", "a ring needs at least 3 switches")
    else:
        topology = ring(args.length)
    failures = args.fail_link or []
    for _at, a, b in failures:
        if b not in topology.adjacency.get(a, ()):
            raise _FlagError(
                "--fail-link", f"{a}:{b} is not a link of {topology.name}"
            )

    trace = scale.trace(scale.workload())
    endpoints = build_fabric_endpoints(
        topology, scale.n_flows, locality=args.net_locality, seed=scale.seed
    )
    controller = FabricController(topology, endpoints)

    fabric = FabricSimulator(
        topology,
        # Same spec + seed => identical rule state per switch.
        pipeline_factory=lambda _context: scale.workload().pipeline,
        system_factory=lambda _context: scale.system(args.system),
        controller=controller,
        config=SimConfig(
            max_idle=scale.max_idle,
            sweep_interval=args.sweep_interval,
            fast_path=True,
            telemetry=Telemetry(),
        ),
        batch_size=args.batch_size,
        link_failures=failures,
    )
    fres = fabric.run(trace)
    merged = fres.merged

    if args.format == "json":
        print(json.dumps(fres.digest(), indent=2))
        return 0

    print(f"{topology.name}: {len(topology)} switches, "
          f"{len(topology.links)} links ({scale.spec.name}, {args.system})")
    print(f"{'switch':<10}{'role':<8}{'packets':>9}{'hit_rate':>10}"
          f"{'peak':>7}")
    for name in fres.switches:
        result = fres.switch_results[name]
        print(f"{name:<10}{topology.role(name):<8}{result.packets:>9}"
              f"{result.hit_rate:>10.4f}{result.peak_entries:>7}")
    for role, rate in sorted(fres.hit_rate_by_role().items()):
        print(f"role {role}: hit_rate={rate:.4f}")
    print(f"{fres.packets} packets -> {fres.hops_total} hop traversals "
          f"(paths: "
          + ", ".join(f"{n} hop x{c}" for n, c in
                      sorted(fres.path_length_counts.items()))
          + f"); reroutes={fres.reroutes}")
    # Merged peak is a bound (per-switch peaks need not align in time).
    print(f"fabric: hit_rate={merged.hit_rate:.4f} "
          f"{merged.peak_entries_label()}/{merged.capacity}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Analyze a trace JSONL file and print/write the flow report."""
    report = analyze_jsonl(args.trace_in, top=args.top)
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = render_text(report, top=args.top)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gigaflow (ASPLOS 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("pipelines", help="list the Table 1 pipelines")

    compare = sub.add_parser(
        "compare", help="Megaflow vs Gigaflow on one pipeline"
    )
    _add_scale_arguments(compare)

    sweep = sub.add_parser("sweep", help="Gigaflow table-count sweep")
    _add_scale_arguments(sweep)
    sweep.add_argument(
        "--tables", type=_positive_int, nargs="+", default=[1, 2, 3, 4],
    )

    coverage = sub.add_parser(
        "coverage", help="Table 2 rule-space coverage"
    )
    _add_scale_arguments(coverage)

    bench = sub.add_parser(
        "bench",
        help="run the behavioural A/B gates (repro.gates.PHASES); "
             "non-zero exit when a gate fails",
    )
    _add_scale_arguments(
        bench, flows=BENCH_SCALE.n_flows,
        mean_flow_size=BENCH_SCALE.mean_flow_size,
        duration=BENCH_SCALE.duration,
        capacity="2x flows: locality-heavy traces should be "
                 "cache-limited by idle time, not size",
    )
    bench.add_argument(
        "--out-dir", default=".",
        help="directory the BENCH_<phase>.json reports and "
             "TRACE_report.json are written to (default: cwd)",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (<=300 flows, <=8s trace)",
    )
    for name, phase in PHASES.items():
        if phase.help is not None:
            bench.add_argument(
                f"--{name}", action="store_true", help=phase.help
            )
    bench.add_argument(
        "--obs-rounds", type=_positive_int, default=9,
        help="interleaved timing rounds per obs variant (the report "
             "keeps each variant's best CPU time; default 9)",
    )
    bench.add_argument(
        "--shard-timeout", type=_positive_float, default=600.0,
        help="wall-clock budget per sharded run before workers are "
             "killed (seconds, default 600)",
    )

    net = sub.add_parser(
        "net",
        help="simulate a multi-switch fabric: one cache per hop, "
             "ECMP-spread shortest paths, optional link failures",
    )
    _add_scale_arguments(
        net, flows=400, capacity="2x flows, per switch",
        mean_flow_size=24.0, duration=10.0,
    )
    net.add_argument(
        "--topology", choices=("leaf-spine", "linear", "ring"),
        default="leaf-spine",
    )
    net.add_argument(
        "--leaves", type=_positive_int, default=4,
        help="leaf switches (leaf-spine; default 4)",
    )
    net.add_argument(
        "--spines", type=_positive_int, default=2,
        help="spine switches (leaf-spine; default 2)",
    )
    net.add_argument(
        "--length", type=_positive_int, default=4,
        help="switch count (linear/ring, a ring at least 3; default 4)",
    )
    net.add_argument("--system", choices=SYSTEMS, default="gigaflow")
    net.add_argument(
        "--net-locality", type=_fraction, default=0.5,
        help="fraction of flows whose endpoints share a leaf "
             "(default 0.5)",
    )
    net.add_argument(
        "--max-idle", type=_non_negative_float, default=0.0,
        help="idle-expiry threshold per switch (0 disables; default 0)",
    )
    net.add_argument(
        "--sweep-interval", type=_positive_float, default=5.0,
        help="sweep/snapshot cadence per switch (default 5)",
    )
    net.add_argument(
        "--batch-size", type=_positive_int, default=256,
        help="per-switch micro-batch size (results identical at any "
             "size; default 256)",
    )
    net.add_argument(
        "--fail-link", type=_link_failure, action="append",
        metavar="A:B:TIME",
        help="take link A-B down at simulated TIME; repeatable",
    )
    net.add_argument(
        "--format", choices=("text", "json"), default="text",
    )

    trace = sub.add_parser(
        "trace",
        help="analyze a trace JSONL file: per-flow chain stats, "
             "pathological flows, pipeline-order suggestion",
    )
    trace.add_argument(
        "--trace-in", type=_readable_file, required=True, metavar="PATH",
        help="trace JSONL file (e.g. written by "
             "`repro stats --trace-out`)",
    )
    trace.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text = aligned report (default), json = the report dict",
    )
    trace.add_argument(
        "--top", type=_non_negative_int, default=5,
        help="flows named per pathological list (default 5)",
    )
    trace.add_argument(
        "--out", type=_writable_path, default=None, metavar="PATH",
        help="write the report here instead of stdout",
    )

    stats = sub.add_parser(
        "stats",
        help="run one simulation with telemetry and export the metrics",
    )
    _add_scale_arguments(
        stats, flows=1000, capacity="2x flows",
        mean_flow_size=64.0, duration=20.0,
    )
    stats.add_argument("--system", choices=SYSTEMS, default="gigaflow")
    stats.add_argument(
        "--max-idle", type=_non_negative_float, default=5.0,
        help="idle-expiry threshold in seconds (0 disables; default 5)",
    )
    stats.add_argument(
        "--sweep-interval", type=_positive_float, default=2.5,
        help="sweep/snapshot cadence in seconds (default 2.5)",
    )
    stats.add_argument(
        "--format", choices=("prom", "json", "text"), default="prom",
        help="prom = Prometheus text exposition (default), "
             "json = metrics+snapshots document, text = rendered table",
    )
    stats.add_argument(
        "--trace-out", type=_writable_path, default=None, metavar="PATH",
        help="stream per-packet trace events to a JSONL file",
    )
    stats.add_argument(
        "--trace-capacity", type=_positive_int, default=65536,
        help="in-memory trace ring-buffer size",
    )
    stats.add_argument(
        "--trace-events", type=_trace_events, default=None,
        metavar="EV[,EV...]",
        help="restrict tracing to these event types (e.g. "
             "'ltm_probe,fastpath_invalidate'); default traces all",
    )

    serve = sub.add_parser(
        "serve",
        help="live serving mode: stream an unbounded workload through "
             "the engine with scrapeable metrics and optional "
             "control-plane churn",
    )
    # --duration here is how long to serve; each generated segment of
    # the unbounded source is --segment-duration long.
    _add_scale_arguments(
        serve, flows=400, capacity="2x flows",
        mean_flow_size=24.0, duration=30.0,
    )
    serve.add_argument(
        "--system", choices=("gigaflow", "megaflow", "adaptive"),
        default="gigaflow",
        help="caching system (hierarchy is excluded: it has no "
             "revalidator, so churn cannot be served against it)",
    )
    serve.add_argument(
        "--segment-duration", type=_positive_float, default=10.0,
        help="length of each generated trace segment of the unbounded "
             "source (default 10)",
    )
    serve.add_argument(
        "--batch-size", type=_positive_int, default=256,
        help="packets per micro-batch (results are identical at any "
             "size; default 256)",
    )
    serve.add_argument(
        "--max-idle", type=_non_negative_float, default=2.0,
        help="idle-expiry threshold in seconds (default 2)",
    )
    serve.add_argument(
        "--sweep-interval", type=_positive_float, default=1.0,
        help="sweep/snapshot/revalidation cadence (default 1)",
    )
    serve.add_argument(
        "--http", action="store_true",
        help="serve Prometheus metrics from a background HTTP thread",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=_port, default=0,
        help="metrics port (0 = ephemeral, printed at startup)",
    )
    serve.add_argument(
        "--storm", action="store_true",
        help="inject an insert/delete storm of ACL denies mid-run",
    )
    serve.add_argument(
        "--storm-count", type=_positive_int, default=16,
        help="rules in the storm (default 16)",
    )
    serve.add_argument(
        "--acl-update", action="store_true",
        help="push an operator ACL deny at 30%% of the run, revert at "
             "70%%",
    )
    serve.add_argument(
        "--shuffle", action="store_true",
        help="re-rank ACL rule priorities at 45%% and 75%% of the run",
    )
    serve.add_argument(
        "--reval-budget", type=_non_negative_int, default=64,
        help="stale entries revalidated per tick (0 = drain fully; "
             "default 64)",
    )
    serve.add_argument(
        "--assert-drained", action="store_true",
        help="exit nonzero unless the revalidation backlog drained and "
             "every scheduled churn event fired (the CI soak gate)",
    )
    return parser


_COMMANDS = {
    "pipelines": cmd_pipelines,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "coverage": cmd_coverage,
    "bench": cmd_bench,
    "net": cmd_net,
    "stats": cmd_stats,
    "serve": cmd_serve,
    "trace": cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _FlagError as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
