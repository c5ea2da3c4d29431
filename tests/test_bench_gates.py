"""``repro bench``: the phase table, its runner and the gates block.

Every phase of :data:`repro.gates.PHASES` is driven through
:func:`repro.gates.run_phases` at a tiny scale; the runner's contract
(shared header, legacy row keys, ``pass | fail | skip(reason)`` gates,
exit code) is what CI's one-line bench step relies on.  Three of the
five phases report behaviour only: their files carry no clock and a
second run reproduces them outside ``header``.
"""

import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro import gates
from repro.cli import _SCALE_FLAGS, build_parser, main
from repro.experiments import BENCH_SCALE, ExperimentScale
from repro.gates import PHASES, Phase, output_file, run_phases

TINY = replace(BENCH_SCALE, n_flows=120, mean_flow_size=16.0, duration=4.0)
#: How the tests run the phases: CI-sized, one obs round.
RUN = {"smoke": True, "obs_rounds": 1}
HEADER_KEYS = {
    "phase", "machine", "cores", "python", "numpy", "git_sha", "scale",
    "rounds", "estimator",
}
PARAM_KEYS = {
    "pipeline", "locality", "flows", "mean_flow_size", "duration", "seed",
}
BASE_ROW = {"hit_rate"}
#: Keys only a phase that owns a clock may report, at any depth.
CLOCK_KEYS = {"seconds", "packets_per_sec", "speedup"}
#: The phases that own one (``repro.gates`` module docstring).
CLOCKED = {"obs", "shards"}
OUTCOME = re.compile(r"pass|fail|skip\(.+\)")

#: phase -> (path to one raw row, keys that row has carried since before
#: the runner existed, gates that must pass at any scale).
LEGACY = {
    "fastpath": (
        ("systems", "gigaflow", "fast_on"),
        BASE_ROW | {"cache_probes", "memo_hits", "memo_hit_rate"},
        {"megaflow_metrics_identical", "gigaflow_metrics_identical",
         "hierarchy_metrics_identical", "adaptive_metrics_identical"},
    ),
    "obs": (
        ("runs", "obs_trace"),
        {"seconds", "packets_per_sec", "hit_rate", "cpu_seconds",
         "overhead_vs_off", "metrics_identical", "trace_events"},
        {"metrics_identical", "trace_identical"},
    ),
    "shards": (
        ("runs", "workers_2"),
        {"packets_per_sec", "wall_packets_per_sec", "speedup_vs_1",
         "hit_rate", "peak_entries_per_shard"},
        {"metrics_identical"},
    ),
    "churn": (
        ("churn",),
        {"backlog", "backlog_peak", "pending_events", "reval_evicted"},
        {"backlog_drained"},
    ),
    "net": (
        ("switches", "spine0"),
        {"role", "packets", "hit_rate", "misses", "evictions"},
        {"conservation_ok", "peak_is_bound"},
    ),
}


def _keys(node):
    """Every dict key in a JSON document, at any depth."""
    if isinstance(node, dict):
        return set(node).union(*map(_keys, node.values()))
    if isinstance(node, list):
        return set().union(*map(_keys, node))
    return set()


@pytest.mark.parametrize("name", list(PHASES))
def test_phase_report_through_the_runner(name, tmp_path, capsys):
    code = run_phases([name], TINY, tmp_path, **RUN)
    report = json.loads((tmp_path / output_file(name)).read_text())

    header = report["header"]
    assert set(header) == HEADER_KEYS
    assert header["phase"] == name
    assert header["scale"]["n_flows"] == TINY.n_flows
    assert header["rounds"] == report.get("rounds", 1)
    assert PARAM_KEYS <= set(report)

    path, row_keys, must_pass = LEGACY[name]
    row = report
    for key in path:
        row = row[key]
    assert row_keys <= set(row)

    outcomes = report["gates"]
    assert outcomes and all(OUTCOME.fullmatch(o) for o in outcomes.values())
    assert all(outcomes[gate] == "pass" for gate in must_pass)
    # The exit code is the gates block and nothing else, and a failure
    # names phase and gate on stderr.
    failed = [gate for gate, o in outcomes.items() if o == "fail"]
    assert code == (1 if failed else 0)
    err = capsys.readouterr().err
    assert all(f"{name}.{gate}" in err for gate in failed)

    if name not in CLOCKED:
        # Behaviour only: no clock in the file, and the file is a
        # function of code + scale + seeds — a second run writes it again.
        assert not CLOCK_KEYS & _keys(report)
        again_dir = tmp_path / "again"
        run_phases([name], TINY, again_dir, **RUN)
        again = json.loads((again_dir / output_file(name)).read_text())
        del report["header"], again["header"]
        assert again == report


def test_obs_writes_the_trace_report_next_to_it(tmp_path):
    run_phases(["obs"], TINY, tmp_path, **RUN)
    report = json.loads((tmp_path / "BENCH_obs.json").read_text())
    trace_report = Path(report["trace_analyze"]["report_path"])
    assert trace_report == tmp_path / "TRACE_report.json"
    assert json.loads(trace_report.read_text())["events"] > 0


def test_smoke_skips_the_scaling_gate_rather_than_dropping_it(tmp_path):
    run_phases(["shards"], TINY, tmp_path, **RUN)
    report = json.loads((tmp_path / "BENCH_shards.json").read_text())
    assert report["gates"]["scaling_ok"] == "skip(smoke)"


def test_scaling_gate_is_decided_only_where_the_workers_fit():
    runs = {"workers_4": {"speedup_vs_1": 3.16}}
    assert gates.scaling_gate(1, runs) == "skip(cores_available < workers)"
    assert gates.scaling_gate(8, runs) == "pass"
    assert gates.scaling_gate(8, {"workers_4": {"speedup_vs_1": 2.9}}) == "fail"


def _stub(monkeypatch, outcomes_by_phase):
    """Replace the always-on phases with instant ones returning the
    given gates blocks."""
    for name, outcomes in outcomes_by_phase.items():
        monkeypatch.setitem(
            PHASES, name,
            Phase(lambda scale, runner, o=outcomes: {"gates": o}),
        )


def test_failing_gate_fails_the_command_and_is_named(
    monkeypatch, tmp_path, capsys
):
    _stub(monkeypatch, {
        "fastpath": {"memo_sound": "pass"},
        "obs": {"cheap_enough": "fail", "identical": "pass"},
    })
    assert main(["bench", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "obs.cheap_enough" in err
    assert "fastpath" not in err and "obs.identical" not in err
    # The failed phase's report is still written, verdict included.
    report = json.loads((tmp_path / "BENCH_obs.json").read_text())
    assert report["gates"]["cheap_enough"] == "fail"


def test_skipped_gate_does_not_fail_the_command(
    monkeypatch, tmp_path, capsys
):
    _stub(monkeypatch, {
        "fastpath": {"memo_sound": "pass"},
        "obs": {"cheap_enough": "skip(one core)"},
    })
    assert main(["bench", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_table_parser_and_output_files_agree():
    parser = build_parser()
    optional = [name for name, phase in PHASES.items() if phase.help]
    args = parser.parse_args(["bench"] + [f"--{name}" for name in optional])
    assert all(getattr(args, name) is True for name in optional)
    # Always-on phases have no switch to forget.
    for name in set(PHASES) - set(optional):
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", f"--{name}"])
    # Every bench option sets a scale field or a runner setting, or is
    # a phase switch, so none is silently ignored; every scale field but
    # the two the preset fixes is a bench option.
    scale_flags = {dest for dest in vars(args) if dest in _SCALE_FLAGS}
    runner = {f.name for f in fields(gates.Runner)} - {"out"}
    assert set(vars(args)) == (
        scale_flags | runner | set(optional) | {"command", "out_dir"}
    )
    fixed = {"mean_packet_gap", "max_idle"}
    assert {_SCALE_FLAGS[dest] for dest in scale_flags} == {
        f.name for f in fields(ExperimentScale)
    } - fixed
    # The committed baselines are exactly the table's output files, each
    # written by the phase it is named after.
    root = Path(__file__).resolve().parent.parent
    committed = {path.name for path in root.glob("BENCH_*.json")}
    assert committed == {output_file(name) for name in PHASES}
    for name in PHASES:
        baseline = json.loads((root / output_file(name)).read_text())
        assert baseline["header"]["phase"] == name
