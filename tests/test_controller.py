"""Tests for the telemetry-driven adaptive control loop (and the two
bug fixes that ride along with it).

Covers, in order:

* the shared-default-config regression (``AdaptiveConfig()`` in a
  signature aliased one instance across every cache) plus an AST audit
  keeping mutable/call argument defaults out of ``src/`` for good;
* the probe-cadence accumulator (``probe_fraction`` is now realised
  exactly, and a mode switch probes immediately);
* :class:`~repro.core.adaptive.ModeGovernor` hysteresis — the one mode
  decider, with or without a controller attached;
* :class:`~repro.core.controller.AdaptiveController` decision dwell,
  streak consumption, knob transitions, the reporting of the
  governor's mode switches, and their observability (transition
  counter + state gauge + ``controller`` trace events);
* shadowed-chain repair on the miss path;
* closed-loop convergence on a locality-shifting trace; and
* controller-off golden digests: with ``SimConfig.controller`` unset
  every system reproduces its pre-controller numbers bit for bit.
"""

import ast
import pathlib
from types import SimpleNamespace

import pytest

from conftest import flow, seeded_workload
from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveGigaflowCache,
    ModeGovernor,
)
from repro.core.controller import (
    KNOB_MODE,
    KNOB_PLACEMENT,
    AdaptiveController,
    ControllerConfig,
)
from repro.core.gigaflow import GigaflowCache
from repro.core.partition import megaflow_partition
from repro.core.rulegen import build_ltm_rules
from repro.obs import Telemetry
from repro.obs.trace import EV_CONTROLLER
from repro.sim import (
    AdaptiveGigaflowSystem,
    GigaflowSystem,
    HierarchySystem,
    MegaflowSystem,
    SimConfig,
    VSwitchSimulator,
)
from repro.workload import TraceProfile, build_locality_shift_trace

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Satellite 1: shared default configs


class TestDefaultConfigAliasing:
    def test_adaptive_caches_do_not_share_config(self):
        a = AdaptiveGigaflowCache(num_tables=2, table_capacity=4)
        b = AdaptiveGigaflowCache(num_tables=2, table_capacity=4)
        assert a.config is not b.config
        a.config.window = 1
        assert b.config.window == AdaptiveConfig().window

    def test_controllers_do_not_share_config(self):
        a = AdaptiveController()
        b = AdaptiveController()
        assert a.config is not b.config
        a.config.dwell = 99
        assert b.config.dwell == ControllerConfig().dwell

    def test_no_mutable_or_call_argument_defaults_in_src(self):
        """The ruff B006/B008 contract, enforced without ruff: no
        function in ``src/`` may evaluate a list/dict/set literal or a
        call in its signature (one shared instance per process)."""
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if isinstance(
                        default, (ast.List, ast.Dict, ast.Set, ast.Call)
                    ):
                        offenders.append(
                            f"{path.relative_to(SRC_ROOT)}:"
                            f"{default.lineno} {node.name}()"
                        )
        assert not offenders, (
            "mutable/call argument defaults found:\n" + "\n".join(offenders)
        )


# ---------------------------------------------------------------------------
# Satellite 2: probe cadence


class TestProbeCadence:
    def _probes(self, governor, installs):
        return sum(
            governor.next_install_partitions() for _ in range(installs)
        )

    def test_disjoint_mode_always_partitions(self):
        governor = ModeGovernor(AdaptiveConfig())
        assert self._probes(governor, 10) == 10

    def test_fraction_realised_exactly(self):
        """0.3 must yield 3 probes per 10 installs, not the old
        every-3rd cadence (~0.33)."""
        governor = ModeGovernor(AdaptiveConfig(probe_fraction=0.3))
        governor.megaflow_mode = True
        assert self._probes(governor, 10) == 3
        assert self._probes(governor, 100) == 30

    def test_fraction_one_probes_every_install(self):
        governor = ModeGovernor(AdaptiveConfig(probe_fraction=1.0))
        governor.megaflow_mode = True
        assert self._probes(governor, 7) == 7

    def test_mode_switch_probes_promptly(self):
        """Entering Megaflow mode primes the accumulator: the very next
        install is a probe instead of waiting a whole probe period."""
        governor = ModeGovernor(AdaptiveConfig(probe_fraction=0.1))
        governor.set_mode(True)
        assert governor.next_install_partitions()
        # ... and the cadence then resumes from empty credit.
        assert self._probes(governor, 9) == 0
        assert governor.next_install_partitions()


class TestModeGovernor:
    def test_standalone_rolls_its_own_windows(self):
        governor = ModeGovernor(AdaptiveConfig(window=10))
        governor.record(10, 1)  # sharing 0.1 < low watermark
        assert governor.megaflow_mode
        governor.record(10, 8)  # probe window: sharing 0.8 > high
        assert not governor.megaflow_mode
        assert governor.mode_switches == 2

    def test_governor_decides_under_a_controller_too(self):
        """One decider: attaching a controller does not silence the
        governor — it still rolls its own windows and switches."""
        cache = AdaptiveGigaflowCache(
            num_tables=2, table_capacity=64,
            config=AdaptiveConfig(window=10),
        )
        AdaptiveController().attach(cache, None)
        cache.governor.record(10, 1)
        assert cache.megaflow_mode
        cache.governor.record(10, 8)
        assert not cache.megaflow_mode
        assert cache.mode_switches == 2


# ---------------------------------------------------------------------------
# The control loop itself


def _controlled_cache(telemetry=None):
    cache = AdaptiveGigaflowCache(num_tables=2, table_capacity=64)
    if telemetry is not None:
        telemetry.attach(cache)
    controller = AdaptiveController(ControllerConfig(dwell=2))
    controller.attach(cache, telemetry)
    return cache, controller


#: Occupancies on either side of the default watermarks (0.35 / 0.85)
#: and one between them.
EMPTY, MIDDLING, FULL = 0.1, 0.5, 0.9


def _sweep_at(controller, occupancy, now):
    """One sweep whose snapshot read this occupancy."""
    return controller.on_sweep(
        now, SimpleNamespace(occupancy=occupancy, epoch_delta=0)
    )


def _knob_moves(controller, knob):
    return [t for t in controller.transitions if t["knob"] == knob]


class TestControllerDecisions:
    """Dwell and streak consumption, through the placement policy
    (``balanced`` until the cache proves comfortably empty)."""

    def test_attach_enables_chain_repair(self):
        cache, controller = _controlled_cache()
        assert cache.chain_repair
        cache2 = AdaptiveGigaflowCache(num_tables=2, table_capacity=64)
        AdaptiveController(
            ControllerConfig(enable_chain_repair=False)
        ).attach(cache2, None)
        assert not cache2.chain_repair

    def test_policy_switch_requires_dwell(self):
        cache, controller = _controlled_cache()
        _sweep_at(controller, EMPTY, now=1.0)
        assert cache.placement == "balanced"  # one sweep of evidence: hold
        _sweep_at(controller, EMPTY, now=2.0)
        assert cache.placement == "earliest"  # dwell=2 reached
        assert [t["knob"] for t in controller.transitions] == [
            KNOB_PLACEMENT
        ]

    def test_noise_resets_the_streak(self):
        cache, controller = _controlled_cache()
        _sweep_at(controller, EMPTY, now=1.0)
        _sweep_at(controller, MIDDLING, now=2.0)  # not empty after all
        _sweep_at(controller, EMPTY, now=3.0)
        assert cache.placement == "balanced"  # never two in a row

    def test_acting_consumes_the_streak(self):
        """After a switch the opposite condition needs a full fresh
        dwell — and the taken condition's streak restarts too."""
        cache, controller = _controlled_cache()
        for now in (1.0, 2.0):
            _sweep_at(controller, EMPTY, now=now)
        assert cache.placement == "earliest"
        # One full sweep is not enough to flap back...
        _sweep_at(controller, FULL, now=3.0)
        assert cache.placement == "earliest"
        # ...two are.
        _sweep_at(controller, FULL, now=4.0)
        assert cache.placement == "balanced"
        assert len(_knob_moves(controller, KNOB_PLACEMENT)) == 2

    def test_transitions_are_observable(self):
        """Every decision lands in the transition counter and, with the
        tracer live, as a ``controller`` trace event."""
        telemetry = Telemetry(tracing=True)
        cache, controller = _controlled_cache(telemetry)
        for now in (1.0, 2.0):
            _sweep_at(controller, EMPTY, now=now)
        assert len(controller.transitions) == 1
        family = telemetry.registry.get("repro_controller_transitions_total")
        assert family is not None
        assert sum(child.value for _, child in family.children()) == 1
        events = [
            e for e in telemetry.tracer.events() if e.event == EV_CONTROLLER
        ]
        assert len(events) == 1
        assert events[0].fields["knob"] == KNOB_PLACEMENT

    def test_transition_log_records_signals(self):
        cache, controller = _controlled_cache()
        for now in (1.0, 2.0):
            _sweep_at(controller, EMPTY, now=now)
        (transition,) = controller.transitions
        assert transition["ts"] == 2.0
        assert transition["from"] == "balanced"
        assert transition["to"] == "earliest"
        assert transition["occupancy"] == EMPTY

    def test_summary_shape(self):
        cache, controller = _controlled_cache()
        for now in (1.0, 2.0):
            _sweep_at(controller, EMPTY, now=now)
        summary = controller.summary()
        assert summary["sweeps"] == 2
        assert summary["transitions"] == 1
        assert summary["by_knob"] == {KNOB_PLACEMENT: 1}
        assert summary["state"] == {
            "mode": "disjoint",
            "placement": "earliest",
            "timeout_scale": None,
        }

    def test_attach_to_cache_without_knobs_is_harmless(self):
        """Megaflow/hierarchy systems expose none of the surfaces; the
        controller must degrade to a no-op, not crash."""
        from repro.cache.megaflow import MegaflowCache

        cache = MegaflowCache(capacity=16)
        controller = AdaptiveController()
        controller.attach(cache, None)
        for now in (1.0, 2.0, 3.0):
            _sweep_at(controller, FULL, now=now)
        assert controller.transitions == []


class TestModeIsReportedNotDecided:
    """The governor switches on its own install windows; the controller
    logs the net change at the next sweep and never calls ``set_mode``."""

    def test_sharing_poor_sweeps_do_not_move_the_mode(self):
        """What the controller's deleted decider acted on — installs
        that reuse nothing, for ``dwell`` sweeps — leaves mode alone."""
        cache, controller = _controlled_cache()
        for now in (1.0, 2.0, 3.0):
            cache.stats.insertions += 40  # 40 generated, 0 reused
            controller.on_sweep(now)
        assert not cache.megaflow_mode
        assert _knob_moves(controller, KNOB_MODE) == []

    def test_governor_switch_is_logged_at_the_next_sweep(self):
        telemetry = Telemetry(tracing=True)
        cache, controller = _controlled_cache(telemetry)
        controller.on_sweep(1.0)
        assert controller.transitions == []
        cache.governor.record(cache.config.window, 0)  # a sharing-poor window
        assert cache.megaflow_mode
        controller.on_sweep(2.0)
        controller.on_sweep(3.0)  # nothing new: no second entry
        (move,) = controller.transitions
        assert (move["knob"], move["from"], move["to"], move["ts"]) == (
            KNOB_MODE, "disjoint", "megaflow", 2.0
        )
        summary = controller.summary()
        assert summary["by_knob"] == {KNOB_MODE: 1}
        assert summary["state"]["mode"] == "megaflow"
        registry = telemetry.registry
        counter = registry.get("repro_controller_transitions_total")
        assert {
            labels: child.value for labels, child in counter.children()
        } == {(cache.name, KNOB_MODE, "megaflow"): 1}
        gauge = registry.get("repro_controller_state")
        assert gauge.labels(cache.name, KNOB_MODE).value == 1.0
        (event,) = [
            e for e in telemetry.tracer.events() if e.event == EV_CONTROLLER
        ]
        assert event.fields["knob"] == KNOB_MODE
        assert (event.fields["from"], event.fields["to"]) == (
            "disjoint", "megaflow"
        )

    def test_two_switches_between_sweeps_log_nothing(self):
        """Only the *net* change since the last sweep is a transition."""
        cache, controller = _controlled_cache()
        controller.on_sweep(1.0)
        window = cache.config.window
        cache.governor.record(window, 0)
        cache.governor.record(window, window)  # rich probe window: back
        assert cache.mode_switches == 2 and not cache.megaflow_mode
        controller.on_sweep(2.0)
        assert controller.transitions == []

    def test_mode_entered_before_attach_is_the_baseline(self):
        cache = AdaptiveGigaflowCache(num_tables=2, table_capacity=64)
        cache.governor.set_mode(True)
        controller = AdaptiveController()
        controller.attach(cache, None)
        controller.on_sweep(1.0)
        assert controller.transitions == []
        assert controller.summary()["state"]["mode"] == "megaflow"


# ---------------------------------------------------------------------------
# Chain repair


def _break_chain(cache, pipeline):
    """Install the default flow's 2-segment chain, then evict its tail —
    the shape eviction leaves behind when it splits a chain."""
    traversal = pipeline.execute(flow())
    outcome = cache.install_traversal(traversal)
    assert outcome.installed >= 2
    (tail,) = list(cache.tables[1])
    cache.tables[1].remove(tail)
    assert not cache.lookup(flow()).hit  # dead-ends at the stale head
    return traversal


class TestChainRepair:
    def test_shadowed_chain_misses_forever_without_repair(self, mini_pipeline):
        """The bug being fixed: the replacement entry is resident and
        complete, yet the stale head keeps winning the first hop."""
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        traversal = _break_chain(cache, mini_pipeline)
        rules = build_ltm_rules(megaflow_partition(traversal), 0, 1.0)
        first = cache.install_rules(rules)
        assert first.installed == 1  # replacement goes in (table 1)
        assert not cache.lookup(flow()).hit  # still shadowed
        second = cache.install_rules(build_ltm_rules(
            megaflow_partition(traversal), 0, 2.0
        ))
        assert second.complete and second.reused and not second.installed
        assert not cache.lookup(flow()).hit  # reinstall changed nothing
        assert cache.shadow_repairs == 0

    def test_repair_unshadows_the_flow(self, mini_pipeline):
        cache = AdaptiveGigaflowCache(
            num_tables=2, table_capacity=8, chain_repair=True
        )
        traversal = _break_chain(cache, mini_pipeline)
        cache.megaflow_mode = True
        cache.install_traversal(traversal, now=1.0)  # installs replacement
        epoch = cache.mutation_epoch
        cache.install_traversal(traversal, now=2.0)  # resident: repairs
        assert cache.shadow_repairs >= 1
        assert cache.lookup(flow()).hit
        assert cache.mutation_epoch > epoch  # fast-path memos flushed

    def test_repair_is_off_by_default(self, mini_pipeline):
        """Uncontrolled caches keep the historical lookup-for-lookup
        behaviour (the controller-off goldens below depend on it)."""
        cache = AdaptiveGigaflowCache(num_tables=2, table_capacity=8)
        assert not cache.chain_repair
        traversal = _break_chain(cache, mini_pipeline)
        cache.megaflow_mode = True
        cache.install_traversal(traversal, now=1.0)
        cache.install_traversal(traversal, now=2.0)
        assert cache.shadow_repairs == 0
        assert not cache.lookup(flow()).hit


# ---------------------------------------------------------------------------
# Closed-loop convergence (the bench scenario, one variant)


class TestConvergence:
    def test_controller_converges_on_locality_shift(self):
        """On the sharing-rich -> sharing-poor trace the loop must act
        and must not lose to the static Gigaflow configuration it
        started as.  (The governor sees no sharing-poor window here —
        ``adaptive_window`` is bit-for-bit static on this trace — so
        the mode stays disjoint; the win is chain repair + placement.)"""
        workload = seeded_workload(n_flows=1200, seed=7)
        profile = TraceProfile(
            mean_flow_size=12.0, duration=60.0, mean_packet_gap=4.0
        )
        trace = build_locality_shift_trace(
            workload, profile, shift_at=30.0, seed=3
        )
        results = {}
        for name, controller in (("static", None), ("closed", True)):
            config = SimConfig(
                fast_path=True, max_idle=20.0, sweep_interval=2.0,
                window=2.0, controller=controller,
            )
            simulator = VSwitchSimulator(
                workload.pipeline,
                AdaptiveGigaflowSystem(num_tables=4, table_capacity=150)
                if controller
                else GigaflowSystem(num_tables=4, table_capacity=150),
                config,
            )
            results[name] = (simulator, simulator.run(trace))
        simulator, result = results["closed"]
        summary = simulator.controller.summary()
        assert summary["transitions"] >= 1
        static_rate = results["static"][1].hit_rate
        assert result.hit_rate >= static_rate - 1e-9

    def test_governor_flips_to_megaflow_on_low_locality(self):
        """The pressure scenario of the controller-off goldens below
        (one governor switch), with the controller attached: the
        governor still switches and the controller's log shows it."""
        workload = seeded_workload(n_flows=400, locality="low")
        simulator = VSwitchSimulator(
            workload.pipeline,
            AdaptiveGigaflowSystem(num_tables=4, table_capacity=30),
            SimConfig(
                max_idle=0.0, sweep_interval=2.0, fast_path=True,
                controller=True,
            ),
        )
        simulator.run(workload.trace(seed=3))
        assert simulator.system.cache.mode_switches == 1
        summary = simulator.controller.summary()
        assert summary["by_knob"].get(KNOB_MODE) == 1
        assert summary["state"]["mode"] == "megaflow"
        (move,) = [t for t in summary["log"] if t["knob"] == KNOB_MODE]
        assert (move["from"], move["to"]) == ("disjoint", "megaflow")


# ---------------------------------------------------------------------------
# Controller-off differential goldens


GOLDEN_IDLE = {
    "megaflow": dict(
        hits=1785, misses=415, insertions=415, rejected=0, evictions=414,
        packets=2200, entry_count=1, peak_entries=72, cache_probes=20309,
    ),
    "gigaflow": dict(
        hits=1698, misses=502, insertions=682, rejected=0, evictions=678,
        packets=2200, entry_count=4, peak_entries=120, cache_probes=28088,
    ),
    "hierarchy": dict(
        hits=1738, misses=462, insertions=0, rejected=0, evictions=0,
        packets=2200, entry_count=1, peak_entries=96, cache_probes=12352,
    ),
    "adaptive": dict(
        hits=1698, misses=502, insertions=682, rejected=0, evictions=678,
        packets=2200, entry_count=4, peak_entries=120, cache_probes=28088,
        mode_switches=0,
    ),
}

GOLDEN_PRESSURE = {
    "megaflow": dict(
        hits=1800, misses=400, insertions=400, rejected=0, evictions=280,
        packets=2200, entry_count=120, peak_entries=120, cache_probes=71525,
    ),
    "gigaflow": dict(
        hits=1739, misses=461, insertions=476, rejected=0, evictions=356,
        packets=2200, entry_count=120, peak_entries=120, cache_probes=111054,
    ),
    "hierarchy": dict(
        hits=1800, misses=400, insertions=0, rejected=0, evictions=0,
        packets=2200, entry_count=150, peak_entries=150, cache_probes=34127,
    ),
    "adaptive": dict(
        hits=1739, misses=461, insertions=476, rejected=0, evictions=356,
        packets=2200, entry_count=120, peak_entries=120, cache_probes=111054,
        mode_switches=1,
    ),
}


def _golden_systems():
    return {
        "megaflow": lambda: MegaflowSystem(capacity=120),
        "gigaflow": lambda: GigaflowSystem(num_tables=4, table_capacity=30),
        "hierarchy": lambda: HierarchySystem(
            microflow_capacity=30, megaflow_capacity=120
        ),
        "adaptive": lambda: AdaptiveGigaflowSystem(
            num_tables=4, table_capacity=30
        ),
    }


class TestControllerOffIsBitIdentical:
    """With ``SimConfig.controller`` unset, nothing in this PR may
    change a single simulation number.  The digests were captured on the
    pre-controller tree (commit ``1d7df77``); chain repair defaulting
    off and the governor refactor must reproduce them exactly.  (The
    adaptive rows are the post-probe-cadence-fix values — that fix
    intentionally corrects Megaflow-mode sampling.)
    """

    @pytest.mark.parametrize("system", sorted(GOLDEN_IDLE))
    def test_idle_scenario(self, system):
        assert self._digest(system, max_idle=4.0, locality="high") == (
            GOLDEN_IDLE[system]
        )

    @pytest.mark.parametrize("system", sorted(GOLDEN_PRESSURE))
    def test_pressure_scenario(self, system):
        assert self._digest(system, max_idle=0.0, locality="low") == (
            GOLDEN_PRESSURE[system]
        )

    @staticmethod
    def _digest(system, max_idle, locality):
        workload = seeded_workload(n_flows=400, locality=locality)
        trace = workload.trace(seed=3)
        config = SimConfig(
            max_idle=max_idle, sweep_interval=2.0, fast_path=True
        )
        simulator = VSwitchSimulator(
            workload.pipeline, _golden_systems()[system](), config
        )
        result = simulator.run(trace)
        stats = result.stats
        digest = dict(
            hits=stats.hits, misses=stats.misses,
            insertions=stats.insertions, rejected=stats.rejected,
            evictions=stats.evictions, packets=result.packets,
            entry_count=result.entry_count,
            peak_entries=result.peak_entries,
            cache_probes=result.cache_probes,
        )
        switches = getattr(simulator.system.cache, "mode_switches", None)
        if switches is not None:
            digest["mode_switches"] = switches
        return digest
