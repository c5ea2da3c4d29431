"""Golden for the slow-path regime: OLS with idle expiry.

Every other golden drives PSC with a cache that mostly hits.  This one
is the ``miss_path`` regime of ``bench/``: OLS (30 tables), high
locality, entries expiring between a flow's packets, so most packets
traverse, un-wildcard, partition, generate and install.  It pins what
that path computes — the ``SimResult`` digest, the pipeline's own
counters (``groups_probed`` moves if the un-wildcarded masks or the
probe order do) and the sorted multiset of every LTM rule the run
installed (moves if a prefix mask, a cut point or a commit does).

Recorded at ``06b3da6`` (the parent of the PR that replaced the per-bit
prefix trie with a sorted index and memoised the partition DP) and
re-recorded once, in PR 23, when the OLS ruleset stopped inheriting the
interpreter's str-hash salt, which moved the input (830 → 834 misses).
``PYTHONPATH=src python tests/test_miss_path_golden.py`` re-records.
"""

import hashlib
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "ols_miss_path.json"

FLOWS = 150
NUM_TABLES = 4
TABLE_CAPACITY = 2000


def record():
    from repro.core.ltm import LtmTable
    from repro.pipeline import OLS
    from repro.sim import GigaflowSystem, SimConfig, VSwitchSimulator
    from repro.workload import TraceProfile, build_workload

    installed = []
    insert = LtmTable.insert

    def recording_insert(table, rule):
        done = insert(table, rule)
        if done:
            match = rule.match
            installed.append(
                (
                    table.index, rule.tag, rule.priority, rule.next_tag,
                    format(match.wildcard.packed, "x"),
                    format(match.packed, "x"), repr(rule.actions),
                )
            )
        return done

    workload = build_workload(OLS, n_flows=FLOWS, locality="high", seed=7)
    trace = workload.trace(
        profile=TraceProfile(
            mean_flow_size=8, duration=60, mean_packet_gap=4.0
        ),
        seed=8,
    )
    simulator = VSwitchSimulator(
        workload.pipeline,
        GigaflowSystem(num_tables=NUM_TABLES, table_capacity=TABLE_CAPACITY),
        SimConfig(max_idle=1.0, sweep_interval=0.5),
    )
    LtmTable.insert = recording_insert
    try:
        result = simulator.run(trace)
    finally:
        LtmTable.insert = insert
    stats = result.stats
    executed = workload.pipeline.stats
    installed.sort()
    return {
        "result": {
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
        },
        "pipeline": {
            "executions": executed.executions,
            "lookups": executed.lookups,
            "groups_probed": executed.groups_probed,
        },
        "installed": {
            "count": len(installed),
            "distinct": len(set(installed)),
            "per_table": [
                sum(1 for rule in installed if rule[0] == index)
                for index in range(NUM_TABLES)
            ],
            "sha256": hashlib.sha256(
                json.dumps(installed).encode("ascii")
            ).hexdigest(),
        },
    }


def test_ols_idle_expiry_run_matches_parent_recording():
    golden = json.loads(GOLDEN.read_text())
    current = record()
    for section, recorded in golden.items():
        assert current[section] == recorded, section
    # The regime the golden exists for: most packets take the slow path
    # and every one of them installs.
    result = golden["result"]
    assert result["misses"] > result["hits"]
    assert golden["pipeline"]["executions"] == result["misses"]
    assert golden["installed"]["count"] == result["insertions"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(record(), handle, indent=1)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
