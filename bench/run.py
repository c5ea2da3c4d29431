"""The benchmark of record: one command, every metric by name.

Two ways in, one measurement:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    measures one workload in this process and prints, as the last line
    of standard output, one JSON object with the keys ``correct``,
    ``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics
    with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 bench/run.py [--seed N] [--repeats R] [--workload NAME ...]
[--smoke] [--no-trace]``
    runs the set: each (workload, repeat) is the command above in a
    fresh child interpreter, children strictly one after another,
    repeats interleaved round-robin across workloads, then one traced
    child per workload.  Prints the report and writes it to
    ``bench/out/report.json``.

Names, units and bounds live in ``BENCHMARK.json`` at the repository
root and nowhere else; a metric computed but not declared there, or
declared but not computed, fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
INFO_PREFIX = "#info "


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _import_program() -> None:
    """Make ``repro`` importable from the checkout this file sits in."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"bench: no program to measure: {source / 'repro'} not found")
    sys.path.insert(0, str(source))


# -- one workload, this process ------------------------------------------------


def run_one(args, declared: dict) -> int:
    _import_program()
    import measure
    import workloads

    name = args.workload[0]
    if name not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}")
    workload = workloads.WORKLOADS[name]
    traced = args.trace == 1
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        outcome = measure.measure_traced(
            workload, args.seed, args.smoke,
            OUT_DIR / f"{name}.trace.json",
        )
    else:
        outcome = measure.measure_timed(
            workload, args.seed, args.seconds, args.smoke
        )

    failures = list(outcome["failures"])
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if traced else "end_to_end"]
    }
    computed = outcome["metrics"]
    for missing in sorted(set(units) - set(computed)):
        failures.append(f"declared: {missing} is declared but not computed")
    for extra in sorted(set(computed) - set(units)):
        failures.append(f"declared: {extra} is computed but not declared")
    table = {w.name: w.why for w in workloads.WORKLOADS.values()}
    if {w["name"]: w["why"] for w in declared["workloads"]} != table:
        failures.append("declared: workloads differ from bench/workloads.py")

    for failure in failures:
        print(f"FAILED {name}: {failure}", file=sys.stderr)
    metrics = {
        key: {"value": computed[key], "unit": units[key]}
        for key in units
        if key in computed
    }
    for key, entry in metrics.items():
        print(f"{name} {key} = {entry['value']:.6g} {entry['unit']}")
    print(
        f"{name} ops_attempted = {outcome['attempted']} "
        f"ops_failed = {outcome['failed']}"
    )
    print(INFO_PREFIX + json.dumps(outcome["info"]))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


# -- the set: children one after another --------------------------------------


def _child(name: str, args, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(
            f"bench: {name} (trace {trace}) exited {done.returncode} "
            "without a result"
        )
    result = json.loads(lines[-1])
    result["info"] = next(
        json.loads(line[len(INFO_PREFIX):])
        for line in lines
        if line.startswith(INFO_PREFIX)
    )
    if done.returncode != 0 or not result["correct"]:
        result["correct"] = False
    return result


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def _header(args) -> dict:
    import numpy

    return {
        "machine": f"{platform.machine()} {platform.system()} "
        f"{platform.release()}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds_per_run": args.seconds,
        "smoke": args.smoke,
        "estimator": "median of repeats; each repeat is the median of "
        "its passes",
    }


def _quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_set(args, declared: dict) -> int:
    _import_program()
    import workloads

    names = args.workload or [w["name"] for w in declared["workloads"]]
    started = time.perf_counter()
    header = _header(args)
    timed = {name: [] for name in names}
    # Round-robin: a noisy minute lands on one repeat of every
    # workload, not on every repeat of one.
    for repeat in range(args.repeats):
        for name in names:
            print(f"... {name} repeat {repeat + 1}/{args.repeats}", flush=True)
            timed[name].append(_child(name, args, trace=0))
    traced = {}
    if not args.no_trace:
        for name in names:
            print(f"... {name} traced", flush=True)
            traced[name] = _child(name, args, trace=1)
    header["wall_s"] = time.perf_counter() - started

    report = {"header": header, "workloads": {}}
    ok = True
    for name in names:
        runs = timed[name]
        failures = []
        digests = [run["info"]["digest"] for run in runs]
        if name in traced:
            digests.append(traced[name]["info"]["digest"])
        if any(digest != digests[0] for digest in digests[1:]):
            failures.append("determinism: digest differs between children")
        if not all(run["correct"] for run in runs):
            failures.append("a timed child reported a failed check")
        if name in traced and not traced[name]["correct"]:
            failures.append("the traced child reported a failed check")
        end_to_end = {}
        for metric in declared["end_to_end"]:
            key = metric["name"]
            values = [run["metrics"][key]["value"] for run in runs]
            end_to_end[key] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "quartiles": _quartiles(values),
                "runs": values,
            }
        report["workloads"][name] = {
            "driver": workloads.WORKLOADS[name].driver,
            "packets": runs[0]["info"]["packets"],
            "passes_per_run": [run["info"]["passes"] for run in runs],
            # Raw wall/set-up seconds and machine-speed scale per pass.
            "timed": [
                {k: v for k, v in run["info"].items() if k != "digest"}
                for run in runs
            ],
            "ops_attempted": sum(run["attempted"] for run in runs)
            + (traced[name]["attempted"] if name in traced else 0),
            "ops_failed": sum(run["failed"] for run in runs)
            + (traced[name]["failed"] if name in traced else 0),
            "digest": digests[0],
            "end_to_end": end_to_end,
            "per_layer": traced[name]["metrics"] if name in traced else {},
            "traced": traced[name]["info"] if name in traced else None,
            "failures": failures,
        }
        ok = ok and not failures

    print_report(report, declared)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"report written to {OUT_DIR / 'report.json'}")
    return 0 if ok else 1


def print_report(report: dict, declared: dict) -> None:
    header = report["header"]
    print("== benchmark of record ==")
    print(
        "  ".join(f"{key}={value}" for key, value in header.items())
    )
    batch_metrics = ("batch_ms_p50", "batch_ms_p90")
    for name, entry in report["workloads"].items():
        print(
            f"\n== {name}: {entry['packets']} packets/pass, passes per "
            f"run {entry['passes_per_run']}, ops_attempted="
            f"{entry['ops_attempted']} ops_failed={entry['ops_failed']}"
        )
        for key, metric in entry["end_to_end"].items():
            if key in batch_metrics and entry["driver"] != "serve":
                continue  # no batches: derived from pps (bench/README.md)
            q1, _median, q3 = metric["quartiles"]
            print(
                f"  {key:<16} {metric['median']:>14.6g} {metric['unit']:<9}"
                f" q1 {q1:.6g}  q3 {q3:.6g}  runs "
                + " ".join(f"{v:.6g}" for v in metric["runs"])
            )
        for key, metric in entry["per_layer"].items():
            print(f"    {key:<44} {metric['value']:>12.6g} {metric['unit']}")
        if entry["traced"] and entry["traced"]["batch_samples"]:
            supported = entry["traced"]["batch_supported_percentile"]
            print(
                f"    {entry['traced']['batch_samples']} batches per pass: "
                "highest percentile with 10 samples beyond it: "
                + ("none" if supported is None else f"p{supported:g}")
            )
        for failure in entry["failures"]:
            print(f"  FAILED {name}: {failure}")


def _pin_hash_seed() -> None:
    """Restart under ``PYTHONHASHSEED=0`` unless already there.

    The program's slow-path probe counts (``pipeline.stats.groups_probed``,
    hence ``avg_latency_us``) depend on string-hash iteration order, so
    with hash randomisation on they differ from one interpreter to the
    next for identical inputs.  ``exec`` replaces this process; nothing
    is left behind to wait for.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv=None) -> int:
    declared = load_declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=float(declared["run_seconds"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument(
        "--repeats", type=int, default=None, help="default 3; 1 with --smoke"
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if len(args.workload) != 1:
            parser.error("--trace measures exactly one --workload")
        return run_one(args, declared)
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 3
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return run_set(args, declared)


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
