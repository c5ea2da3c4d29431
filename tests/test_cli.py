"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.net import FabricSimulator
from repro.obs import EVENTS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_pipelines_command(self):
        args = build_parser().parse_args(["pipelines"])
        assert args.command == "pipelines"

    def test_compare_arguments(self):
        args = build_parser().parse_args(
            ["compare", "psc", "--flows", "100", "--locality", "low"]
        )
        assert args.pipeline == "psc"
        assert args.flows == 100
        assert args.locality == "low"

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "nope"])


class TestCommands:
    def test_pipelines_lists_all(self, capsys):
        assert main(["pipelines"]) == 0
        out = capsys.readouterr().out
        for name in ("OFD", "PSC", "OLS", "ANT", "OTL"):
            assert name in out

    def test_compare_runs_small(self, capsys):
        code = main(
            ["compare", "psc", "--flows", "300", "--capacity", "100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "megaflow" in out
        assert "gigaflow" in out
        assert "hit-rate gain" in out

    def test_sweep_runs_small(self, capsys):
        code = main(
            ["sweep", "psc", "--flows", "300", "--capacity", "100",
             "--tables", "1", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage" in out

    def test_coverage_runs_small(self, capsys):
        code = main(
            ["coverage", "psc", "--flows", "300", "--capacity", "100"]
        )
        assert code == 0
        assert "PSC" in capsys.readouterr().out


class TestScaleValidation:
    """A bad scale value exits 2 naming its flag (argparse), on a
    trace-replaying subcommand (stats) and a non-replaying one
    (compare) alike — not a ValueError from inside the trace builder."""

    @pytest.mark.parametrize("command", ["compare", "stats"])
    @pytest.mark.parametrize("flag, value", [
        ("--flows", "0"), ("--flows", "-5"), ("--capacity", "-1"),
    ])
    def test_counts_must_be_positive(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "psc", flag, value])
        assert exit_info.value.code == 2
        assert (
            f"argument {flag}: must be a positive integer"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag", ["--duration", "--mean-flow-size"])
    @pytest.mark.parametrize("value", ["0", "-1.5", "nan"])
    def test_trace_knobs_must_be_positive(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["stats", "psc", flag, value])
        assert exit_info.value.code == 2
        assert (
            f"argument {flag}: must be a positive number"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command, flag", [
        ("stats", "--sweep-interval"),
        ("net", "--sweep-interval"),
        ("serve", "--sweep-interval"),
        ("serve", "--storm-count"),
        ("serve", "--segment-duration"),
        ("stats", "--trace-capacity"),
        ("net", "--batch-size"),
        ("serve", "--batch-size"),
    ])
    def test_cadences_and_sizes_must_be_positive(self, command, flag, capsys):
        """Zero once hung a cadence loop or divided by zero."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "psc", flag, "0"])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be a positive" in capsys.readouterr().err


class TestFlagValidation:
    """Every flag a constructor would reject exits 2 at parse time,
    naming the flag — not a traceback from inside the run, and not a
    silent exit 0."""

    CASES = [
        ("net psc --leaves 0", "--leaves", "must be a positive integer"),
        ("net psc --spines 0", "--spines", "must be a positive integer"),
        ("net psc --topology linear --length 0", "--length",
         "must be a positive integer"),
        ("net psc --topology ring --length 2", "--length",
         "a ring needs at least 3 switches"),
        ("net psc --net-locality 2", "--net-locality",
         "must be a number in [0, 1]"),
        ("net psc --max-idle -1", "--max-idle",
         "must be a non-negative number"),
        ("stats psc --max-idle -1", "--max-idle",
         "must be a non-negative number"),
        ("serve psc --max-idle -1", "--max-idle",
         "must be a non-negative number"),
        ("serve psc --storm --reval-budget -1", "--reval-budget",
         "must be a non-negative integer"),
        ("serve psc --reval-budget -1", "--reval-budget",
         "must be a non-negative integer"),
        ("net psc --fail-link leaf0:spine9:1", "--fail-link",
         "leaf0:spine9 is not a link of leaf_spine_4x2"),
        ("trace --trace-in /nonexistent/trace.jsonl", "--trace-in",
         "cannot read '/nonexistent/trace.jsonl'"),
        ("sweep psc --tables 0", "--tables", "must be a positive integer"),
        ("bench --obs-rounds 0", "--obs-rounds",
         "must be a positive integer"),
        ("bench --shard-timeout 0", "--shard-timeout",
         "must be a positive number"),
        ("trace --trace-in /dev/null --top -1", "--top",
         "must be a non-negative integer"),
        ("compare psc --seed -1", "--seed", "must be a non-negative integer"),
        ("stats psc --trace-seed -1", "--trace-seed",
         "must be a non-negative integer"),
        ("serve psc --http --port 70000", "--port",
         "must be a port in [0, 65535]"),
        ("stats psc --trace-out /nonexistent/x.jsonl", "--trace-out",
         "cannot write '/nonexistent/x.jsonl': no such directory"),
        ("trace --trace-in /dev/null --out /nonexistent/r.txt", "--out",
         "cannot write '/nonexistent/r.txt': no such directory"),
    ]

    @pytest.mark.parametrize(
        "argv, flag, message", CASES, ids=[case[0] for case in CASES]
    )
    def test_exits_2_naming_the_flag(self, argv, flag, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv.split())
        assert exit_info.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err


class TestTraceEvents:
    def test_unknown_event_exits_2_naming_it_and_the_valid_ones(
        self, tmp_path, capsys
    ):
        out = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(["stats", "psc", "--flows", "200", "--trace-events",
                  "ltm_probe,lookup_hitt", "--trace-out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert (
            "argument --trace-events: unknown trace event 'lookup_hitt'"
            in err
        )
        assert all(name in err for name, _ in EVENTS)
        assert not out.exists()

    def test_known_events_are_the_tracer_filter(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code = main(["stats", "psc", "--flows", "100", "--duration", "4",
                     "--trace-events", "lookup_miss, install",
                     "--trace-out", str(out)])
        assert code == 0
        events = {json.loads(line)["event"] for line in out.open()}
        assert events == {"lookup_miss", "install"}


class TestNet:
    ARGS = ["net", "psc", "--flows", "60", "--mean-flow-size", "8",
            "--duration", "4"]

    def test_json_is_the_fabric_digest(self, monkeypatch, capsys):
        runs = []
        run = FabricSimulator.run
        monkeypatch.setattr(
            FabricSimulator, "run",
            lambda self, trace: runs.append(run(self, trace)) or runs[-1],
        )
        assert main(self.ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (fres,) = runs
        assert payload == fres.digest()
        # The digest is the union of what the CLI and the bench's net
        # phase used to hand-build, hit rates rounded to 6 places.
        spine = fres.switch_results["spine0"]
        assert payload["switches"]["spine0"] == {
            "role": "spine",
            "packets": spine.packets,
            "hit_rate": round(spine.hit_rate, 6),
            "misses": spine.misses,
            "evictions": spine.stats.evictions,
            "peak_entries": spine.peak_entries,
        }
        assert payload["reroutes"] == 0
        assert payload["hops_total"] == sum(
            switch["packets"] for switch in payload["switches"].values()
        )
        assert payload["peak_entries_upper_bound"] == sum(
            payload["peak_entries_per_switch"].values()
        )
        assert payload["peak_entries_exact"] is False

    def test_fail_link_without_a_time_is_named(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGS + ["--fail-link", "leaf0:spine0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --fail-link" in err and "leaf0:spine0" in err
