"""Golden for the workload generator: every Pipebench input, pinned.

A workload is the pipeline's rules, the pilot flow classes with their
true traversals, and the packet trace over them.  This golden builds
all five Table 1 pipelines at both localities (400 flows, seed 7) and
pins, per cell, the counts and one sha256 over:

* the rules of every table in install order (packed match value and
  wildcard, priority, ``repr(actions)``, next table);
* the pilots (packed flow, template index, class key) and each step of
  their traversal (table, position of the matched rule in its table's
  install order, packed wildcard);
* the trace columns (times, flow indices, sizes).

Rules are named by install position, never by ``rule_id``: the id is a
process-wide counter, so it depends on what ran before.

Recorded at ``70c4aa7``, before the generator's projection plans,
disposition-only probe and single-draw template pick went in: those
changes must leave every byte of the input the same.
``PYTHONPATH=src python tests/test_pipebench_golden.py`` re-records.
"""

import hashlib
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "pipebench_inputs.json"

FLOWS = 400
SEED = 7
TRACE_SEED = 8


def record_cell(name, locality):
    from repro.pipeline import get_pipeline_spec
    from repro.workload import TraceProfile, build_workload

    workload = build_workload(
        get_pipeline_spec(name), n_flows=FLOWS, locality=locality, seed=SEED
    )
    digest = hashlib.sha256()
    position = {}
    rules_per_table = []
    for table_id in workload.pipeline.table_ids:
        rules = sorted(
            workload.pipeline.table(table_id), key=lambda rule: rule.rule_id
        )
        rules_per_table.append(len(rules))
        for index, rule in enumerate(rules):
            position[rule.rule_id] = (table_id, index)
            digest.update(
                repr(
                    (
                        table_id,
                        format(rule.match.packed, "x"),
                        format(rule.match.wildcard.packed, "x"),
                        rule.priority,
                        repr(rule.actions),
                        rule.next_table,
                    )
                ).encode("ascii")
            )
    steps = 0
    for pilot in workload.pilots:
        digest.update(
            repr(
                (
                    format(pilot.flow.packed, "x"),
                    pilot.template_index,
                    pilot.class_key,
                    pilot.traversal.disposition.value,
                )
            ).encode("ascii")
        )
        for step in pilot.traversal.steps:
            steps += 1
            digest.update(
                repr(
                    (
                        step.table_id,
                        position.get(step.rule_id),
                        format(step.wildcard.packed, "x"),
                    )
                ).encode("ascii")
            )
    trace = workload.trace(
        profile=TraceProfile(mean_flow_size=4, duration=30), seed=TRACE_SEED
    )
    for column in trace.columns():
        digest.update(column.tobytes())
    return {
        "rules": sum(rules_per_table),
        "rules_per_table": rules_per_table,
        "pilots": len(workload.pilots),
        "traversal_steps": steps,
        "packets": len(trace),
        "sha256": digest.hexdigest(),
    }


def record():
    from repro.experiments import LOCALITIES, PIPELINE_NAMES

    return {
        f"{name}/{locality}": record_cell(name, locality)
        for name in PIPELINE_NAMES
        for locality in LOCALITIES
    }


def test_every_workload_input_matches_parent_recording():
    golden = json.loads(GOLDEN.read_text())
    current = record()
    assert sorted(current) == sorted(golden)
    for cell, recorded in golden.items():
        assert current[cell] == recorded, cell


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(record(), handle, indent=1)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
