"""A seeded run is a function of its seeds, in any interpreter.

``python tests/test_hash_seed_independence.py`` runs a small seeded
scenario set and prints one JSON document; the test runs it in two child
interpreters with different, non-zero ``PYTHONHASHSEED`` values and the
documents must be equal.  Until PR 23 they were not: Pipebench derived
the pilots' ``tp_src`` from ``hash`` of a key that starts with a str tag,
so rulesets, flow ids, shard routing, ``groups_probed`` and every
latency figure moved with the interpreter's str-hash salt, and goldens
and reports were recorded around ``PYTHONHASHSEED=0``.  This is the only
place under ``tests/`` that sets that variable or starts an interpreter
for it (DESIGN.md §5, "Determinism").
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import repro
from repro import gates
from repro.net import FabricController, FabricSimulator, leaf_spine
from repro.obs import Telemetry
from repro.pipeline import PIPELINES
from repro.sim import (
    GigaflowSystem,
    MegaflowSystem,
    ShardedSimulator,
    SimConfig,
    VSwitchSimulator,
)
from repro.workload import build_fabric_endpoints, build_workload
from conftest import seeded_trace, seeded_workload
from test_bench_gates import CLOCKED, RUN, TINY
from test_obs import result_fingerprint

#: Two salts, neither the one everything used to be recorded under.
HASH_SEEDS = ("1", "2")


def scenarios():
    """``{scenario: JSON-able digest}``, cheapest first."""
    systems = {
        "megaflow": lambda _context=None: MegaflowSystem(capacity=60),
        "gigaflow": lambda _context=None: GigaflowSystem(
            num_tables=4, table_capacity=30
        ),
    }
    config = dict(max_idle=2.0, sweep_interval=1.0, fast_path=True)
    out = {}
    for spec in PIPELINES.values():
        for name, make in systems.items():
            workload = build_workload(spec, n_flows=80, seed=11)
            result = VSwitchSimulator(
                workload.pipeline, make(), SimConfig(**config)
            ).run(workload.trace(seed=3))
            out[f"{spec.name}/{name}"] = result_fingerprint(result)

    with tempfile.TemporaryDirectory() as directory:
        telemetry = Telemetry(trace_sink=os.path.join(directory, "trace"))
        workload = seeded_workload(n_flows=120)
        driver = ShardedSimulator(
            workload.pipeline, systems["gigaflow"],
            SimConfig(telemetry=telemetry, **config),
            shards=2,
            mode="inline",
        )
        result = driver.run(seeded_trace(workload))
        telemetry.close()
        out["sharded"] = {
            "result": result_fingerprint(result),
            "metrics": driver.registry.to_json(),
            "streams": {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(directory).iterdir())
            },
        }

    workload = seeded_workload(n_flows=120)
    topology = leaf_spine(2, 1)
    result = FabricSimulator(
        topology,
        lambda _context: seeded_workload(n_flows=120).pipeline,
        systems["gigaflow"],
        controller=FabricController(
            topology, build_fabric_endpoints(topology, 120, seed=5)
        ),
        config=SimConfig(**config),
    ).run(seeded_trace(workload))
    out["fabric"] = result.digest()

    # The phases whose reports carry no clock, compared outside ``header``.
    clock_free = [phase for phase in gates.PHASES if phase not in CLOCKED]
    with tempfile.TemporaryDirectory() as directory:
        with contextlib.redirect_stdout(io.StringIO()):
            gates.run_phases(clock_free, TINY, directory, **RUN)
        for phase in clock_free:
            report = json.loads(
                (Path(directory) / gates.output_file(phase)).read_text()
            )
            del report["header"]
            out[f"bench/{phase}"] = report
    return out


def _child(hash_seed):
    # A script finds its own directory (conftest, test_obs); not ``src``.
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, __file__],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, (hash_seed, done.stderr)
    return json.loads(done.stdout)


def test_two_hash_seeds_one_result():
    first, second = map(_child, HASH_SEEDS)
    assert list(first) == list(second)
    # The cheap scenarios lead, so the first name is the smallest repro.
    differing = [name for name in first if first[name] != second[name]]
    assert not differing, (
        f"PYTHONHASHSEED={HASH_SEEDS[0]} and ={HASH_SEEDS[1]} disagree, "
        f"first on {differing[0]!r}: {differing}"
    )


if __name__ == "__main__":
    json.dump(scenarios(), sys.stdout)
