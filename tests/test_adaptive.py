"""Tests for the §7 adaptive cache: the :class:`ModeGovernor`, how a
mode switch is reported, and what a dead-ended chain walk leaves behind.

Covers, in order:

* each cache owns its governor (a config instance in a signature once
  aliased one across every cache) plus an AST audit keeping
  mutable/call argument defaults out of ``src/`` for good;
* the probe-cadence accumulator (``PROBE_FRACTION`` is realised
  exactly, and a mode switch probes immediately);
* :class:`~repro.core.adaptive.ModeGovernor` hysteresis — the one mode
  decider and the repository's only adaptive mechanism;
* a governor switch is reported by the install that caused it
  (``mode_switch`` trace event + ``repro_mode_switches_total``), not at
  some later sweep;
* a walk that dead-ends at a stranded chain head touches nothing, so
  the head ages out and the flow hits again; and
* plain-engine golden digests recorded before any control loop existed.
"""

import ast
import pathlib

import pytest

from conftest import flow, seeded_workload
from test_ltm import ltm_rule
from repro.core import adaptive
from repro.core.adaptive import (
    PROBE_FRACTION,
    AdaptiveGigaflowCache,
    ModeGovernor,
)
from repro.core.gigaflow import GigaflowCache
from repro.core.partition import megaflow_partition
from repro.core.rulegen import build_ltm_rules
from repro.obs import Telemetry
from repro.obs.trace import EV_MODE_SWITCH
from repro.sim import (
    AdaptiveGigaflowSystem,
    GigaflowSystem,
    HierarchySystem,
    MegaflowSystem,
    ShardedSimulator,
    SimConfig,
    VSwitchSimulator,
)

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Satellite 1: shared default configs


class TestDefaultConfigAliasing:
    def test_adaptive_caches_do_not_share_config(self):
        """The governor is a cache's whole mode state: each owns one."""
        a = AdaptiveGigaflowCache(num_tables=2, table_capacity=4)
        b = AdaptiveGigaflowCache(num_tables=2, table_capacity=4)
        assert a.governor is not b.governor
        a.governor.set_mode(True)
        assert not b.governor.megaflow_mode

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
        governor = ModeGovernor()
        assert self._probes(governor, 10) == 10

    def test_fraction_realised_exactly(self):
        """One probe per ten installs, after every install: integer
        bookkeeping, so a thousand installs neither drift nor skip."""
        assert PROBE_FRACTION == 0.1
        governor = ModeGovernor()
        governor.megaflow_mode = True
        probes = 0
        for installs in range(1, 1001):
            probes += governor.next_install_partitions()
            assert probes == installs // 10

    def test_fraction_one_probes_every_install(self, monkeypatch):
        monkeypatch.setattr(adaptive, "PROBE_FRACTION", 1.0)
        governor = ModeGovernor()
        governor.megaflow_mode = True
        assert self._probes(governor, 7) == 7

    def test_mode_switch_probes_promptly(self):
        """Entering Megaflow mode primes the accumulator: the very next
        install is a probe instead of waiting a whole probe period."""
        governor = ModeGovernor()
        governor.set_mode(True)
        assert governor.next_install_partitions()
        # ... and the cadence then resumes from empty credit.
        assert self._probes(governor, 9) == 0
        assert governor.next_install_partitions()


@pytest.fixture
def short_window(monkeypatch):
    """A two-rule observation window, so a couple of installs switch."""
    monkeypatch.setattr(adaptive, "WINDOW", 2)


class TestModeGovernor:
    def test_standalone_rolls_its_own_windows(self, monkeypatch):
        monkeypatch.setattr(adaptive, "WINDOW", 10)
        governor = ModeGovernor()
        governor.record(10, 1)  # sharing 0.1 < low watermark
        assert governor.megaflow_mode
        governor.record(10, 8)  # probe window: sharing 0.8 > high
        assert not governor.megaflow_mode
        assert governor.mode_switches == 2


# ---------------------------------------------------------------------------
# A switch is seen when it happens


SWITCHES = [(1.25, "disjoint", "megaflow"), (1.75, "megaflow", "disjoint")]


def _two_switches(cache, pipeline):
    """Two installs of one traversal, both between any two sweeps: the
    first generates a sharing-free window (-> Megaflow mode), the
    second is the immediate probe and reuses every rule (-> back)."""
    traversal = pipeline.execute(flow())
    for now, _old, _new in SWITCHES:
        cache.install_traversal(traversal, now=now)
    governor = cache.governor
    assert governor.mode_switches == 2 and not governor.megaflow_mode


class TestModeSwitchIsReportedAtTheSource:
    def _cache(self):
        return AdaptiveGigaflowCache(num_tables=2, table_capacity=8)

    def test_each_switch_is_traced_and_counted_by_its_install(
        self, mini_pipeline, short_window
    ):
        """Both switches cancel out before any sweep could run; each is
        still a ``mode_switch`` record stamped with its install's
        ``now`` and one counter increment."""
        telemetry = Telemetry(tracing=True)
        cache = self._cache()
        telemetry.attach(cache)
        _two_switches(cache, mini_pipeline)
        events = [
            e for e in telemetry.tracer.events() if e.event == EV_MODE_SWITCH
        ]
        assert [
            (e.ts, e.fields["from"], e.fields["to"]) for e in events
        ] == SWITCHES
        assert all(e.fields["cache"] == cache.name for e in events)
        counter = telemetry.registry.get("repro_mode_switches_total")
        assert {
            labels: child.value for labels, child in counter.children()
        } == {(cache.name, "megaflow"): 1, (cache.name, "disjoint"): 1}

    def test_detached_cache_switches_without_a_hub(
        self, mini_pipeline, short_window
    ):
        cache = self._cache()
        assert cache.telemetry is None
        _two_switches(cache, mini_pipeline)

    def test_sharded_run_sums_the_counter(self):
        workload = seeded_workload(n_flows=400, locality="low")
        systems = []

        def factory(_context):
            systems.append(
                AdaptiveGigaflowSystem(num_tables=4, table_capacity=30)
            )
            return systems[-1]

        driver = ShardedSimulator(
            workload.pipeline, factory,
            SimConfig(telemetry=Telemetry(tracing=False)),
            shards=2,
            mode="inline",
        )
        driver.run(workload.trace(seed=3))
        per_shard = [
            system.cache.governor.mode_switches for system in systems
        ]
        assert len(per_shard) == 2 and all(per_shard)
        counter = driver.registry.get("repro_mode_switches_total")
        assert sum(child.value for _, child in counter.children()) == sum(
            per_shard
        )


# ---------------------------------------------------------------------------
# Dead ends


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


def _serve(cache, traversal, now):
    """One packet of the stranded flow: a lookup and, on a miss, the
    slow path's reinstall as one whole-traversal rule (a Megaflow-mode
    install).  It lands in table 1, behind the head, so the head's
    dead end shadows it for as long as the head stays resident."""
    if cache.lookup(flow(), now).hit:
        return True
    whole = build_ltm_rules(megaflow_partition(traversal), 0, now)
    cache.install_rules(whole)
    return False


def _recency(cache):
    """Every table's rules in LRU order, with what a touch would move."""
    return [
        [(rule.rule_id, rule.last_used)
         for rule in table._by_id.values()]
        for table in cache.tables
    ]


class TestDeadEnds:
    """Only a lookup whose chain completes touches the rules it matched."""

    def test_a_dead_end_touches_nothing(self, mini_pipeline):
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        _break_chain(cache, mini_pipeline)
        (head,) = list(cache.tables[0])
        # A one-segment chain behind the head in table 0, then a hit on
        # it: the head is now that table's least recently used rule.
        cache.tables[0].insert(ltm_rule({"in_port": 2}))
        assert cache.lookup(flow(in_port=2), now=1.0).hit
        before = _recency(cache)
        assert before[0][0][0] == head.rule_id
        result = cache.lookup(flow(), now=2.0)
        assert not result.hit and result.tables_hit == 1
        assert _recency(cache) == before
        assert head.last_used == 0.0

    def test_stranded_head_ages_out_under_idle_expiry(self, mini_pipeline):
        cache = GigaflowCache(num_tables=2, table_capacity=8)
        traversal = _break_chain(cache, mini_pipeline)
        (head,) = list(cache.tables[0])
        assert not any(
            _serve(cache, traversal, now) for now in (1.0, 2.0, 3.0, 4.0, 5.0)
        )
        # The reinstalls kept refreshing the replacement; nothing
        # refreshed the head, so one sweep takes it and only it.
        cache.evict_idle(6.0, max_idle=4.0)
        assert head not in cache.tables[0] and cache.entry_count() == 1
        assert _serve(cache, traversal, 6.0)

    def test_stranded_head_is_the_capacity_victim(self, mini_pipeline):
        cache = GigaflowCache(num_tables=2, table_capacity=2)
        traversal = _break_chain(cache, mini_pipeline)
        (head,) = list(cache.tables[0])
        for now in (1.0, 2.0, 3.0):
            assert not _serve(cache, traversal, now)
            # Other traffic: one fresh single-segment rule a second;
            # the third install finds all four slots full.
            other = ltm_rule({"in_port": 100 + int(now)}, now=now)
            cache.install_rules([other])
        assert cache.stats.evictions == 1
        assert head not in cache.tables[0]
        assert _serve(cache, traversal, 4.0)


# ---------------------------------------------------------------------------
# The governor inside the engine


def test_governor_flips_to_megaflow_on_low_locality():
    """The pressure scenario of the goldens below (one governor
    switch), with telemetry attached: the run's own output shows it."""
    workload = seeded_workload(n_flows=400, locality="low")
    telemetry = Telemetry(tracing=True)
    simulator = VSwitchSimulator(
        workload.pipeline,
        AdaptiveGigaflowSystem(num_tables=4, table_capacity=30),
        SimConfig(
            max_idle=0.0, sweep_interval=2.0, fast_path=True,
            telemetry=telemetry,
        ),
    )
    simulator.run(workload.trace(seed=3))
    cache = simulator.system.cache
    governor = cache.governor
    assert governor.mode_switches == 1 and governor.megaflow_mode
    counter = telemetry.registry.get("repro_mode_switches_total")
    assert {
        labels: child.value for labels, child in counter.children()
    } == {(cache.name, "megaflow"): 1}
    (event,) = [
        e for e in telemetry.tracer.events() if e.event == EV_MODE_SWITCH
    ]
    assert (event.fields["from"], event.fields["to"]) == (
        "disjoint", "megaflow"
    )


# ---------------------------------------------------------------------------
# Plain-engine differential goldens


GOLDEN_IDLE = {
    "megaflow": dict(
        hits=1785, misses=415, insertions=415, rejected=0, evictions=414,
        packets=2200, entry_count=1, peak_entries=72, cache_probes=20309,
    ),
    "gigaflow": dict(
        hits=1748, misses=452, insertions=687, rejected=0, evictions=683,
        packets=2200, entry_count=4, peak_entries=120, cache_probes=26208,
    ),
    "hierarchy": dict(
        hits=1738, misses=462, insertions=0, rejected=0, evictions=0,
        packets=2200, entry_count=1, peak_entries=96, cache_probes=12352,
    ),
    "adaptive": dict(
        hits=1748, misses=452, insertions=687, rejected=0, evictions=683,
        packets=2200, entry_count=4, peak_entries=120, cache_probes=26208,
        mode_switches=0,
    ),
}

GOLDEN_PRESSURE = {
    "megaflow": dict(
        hits=1800, misses=400, insertions=400, rejected=0, evictions=280,
        packets=2200, entry_count=120, peak_entries=120, cache_probes=71525,
    ),
    "gigaflow": dict(
        hits=1788, misses=412, insertions=476, rejected=0, evictions=356,
        packets=2200, entry_count=120, peak_entries=120, cache_probes=102661,
    ),
    "hierarchy": dict(
        hits=1800, misses=400, insertions=0, rejected=0, evictions=0,
        packets=2200, entry_count=150, peak_entries=150, cache_probes=34127,
    ),
    "adaptive": dict(
        hits=1788, misses=412, insertions=476, rejected=0, evictions=356,
        packets=2200, entry_count=120, peak_entries=120, cache_probes=102661,
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


class TestPreControllerDigests:
    """The plain engine's numbers, captured on commit ``1d7df77`` —
    before any control loop existed: they held while
    ``SimConfig.controller`` arrived (off by default) and prove the
    engine did not move when it was deleted; the governor refactor
    reproduced them exactly.  (The adaptive rows are the
    post-probe-cadence-fix values — that fix intentionally corrects
    Megaflow-mode sampling.)  The Gigaflow and adaptive rows were
    re-recorded once, when a lookup that dead-ends stopped refreshing
    the chain head it matched: 502 → 452 misses idle, 461 → 412 under
    pressure, the governor's one switch unchanged.  Megaflow and the
    hierarchy have no chains and did not move.
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
        governor = getattr(simulator.system.cache, "governor", None)
        if governor is not None:
            digest["mode_switches"] = governor.mode_switches
        return digest
