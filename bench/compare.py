"""Compare two reports written by ``bench/run.py``.

``python3 bench/compare.py A.json B.json`` prints, per workload and
end-to-end metric, both medians, the ratio B/A with its base, the bound
fixed in ``BENCHMARK.json`` and a verdict:

``ok``          B is no worse than A by more than the bound;
``worse``       it is;
``unresolved``  either side's own runs spread (q3 - q1 over the median)
                wider than the bound, so the comparison cannot tell —
                unless every run of B reads better than every run of A.

Simulated metrics (hit rate, modelled latency) and the exact per-layer
counts do not depend on the host: for the same seed they print
``identical`` or the two values.  Exit status is 1 if anything is
``worse`` or differs, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer names that are host time, not exact counts.
HOST_TIME_SUFFIXES = (".self_us_per_pkt",)
HOST_TIME_NAMES = (
    "sim.cpu_us_per_pkt", "serve.batch_ms_p99", "trace.overhead_ratio",
    "trace.named_share",
)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _spread(metric: dict) -> float:
    q1, _median, q3 = metric["quartiles"]
    return (q3 - q1) / metric["median"] if metric["median"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    if max(_spread(a), _spread(b)) > bound:
        clean_win = all(
            sign * run_b < sign * run_a
            for run_a in a["runs"]
            for run_b in b["runs"]
        )
        return "ok" if clean_win else "unresolved"
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    return "worse" if worsening > bound else "ok"


def is_exact(name: str) -> bool:
    return not (name.endswith(HOST_TIME_SUFFIXES) or name in HOST_TIME_NAMES)


def compare(a: dict, b: dict, declared: dict) -> int:
    bad = 0
    same_seed = a["header"]["seed"] == b["header"]["seed"]
    for label, report in (("A", a), ("B", b)):
        print(label + ": " + "  ".join(
            f"{key}={value}" for key, value in report["header"].items()
        ))
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"\n== {name}: missing from B")
            bad += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"\n== {name}")
        for metric in declared["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            ma, mb = wa["end_to_end"][key], wb["end_to_end"][key]
            if same_seed and ma["runs"] == mb["runs"]:
                # Only simulated metrics repeat digit for digit.
                print(f"  {key:<16} {ma['median']:>12.6g} identical")
                continue
            result = verdict(ma, mb, metric["better"], bound)
            bad += result == "worse"
            print(
                f"  {key:<16} A {ma['median']:>12.6g}  B {mb['median']:>12.6g}"
                f"  B/A {mb['median'] / ma['median']:.4f} (base A)"
                f"  spread A {_spread(ma):.3f} B {_spread(mb):.3f}"
                f"  bound {bound:g} ({metric['better']} is better)  {result}"
            )
        if not same_seed:
            print("  (different seeds: exact counts not compared)")
            continue
        differing = [
            key
            for key in wa["per_layer"]
            if is_exact(key)
            and wa["per_layer"][key]["value"]
            != wb["per_layer"].get(key, {}).get("value")
        ]
        if wa["digest"] != wb["digest"]:
            differing.insert(0, "digest")
        if not differing:
            print("  exact per-layer counts and simulated digest: identical")
        for key in differing:
            bad += 1
            if key == "digest":
                print(f"  digest differs: A {wa['digest']}  B {wb['digest']}")
            else:
                print(
                    f"  {key}: A {wa['per_layer'][key]['value']!r}  "
                    f"B {wb['per_layer'].get(key, {}).get('value')!r}"
                )
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    declared = _load(ROOT / "BENCHMARK.json")
    return compare(_load(argv[0]), _load(argv[1]), declared)


if __name__ == "__main__":
    sys.exit(main())
