"""Tests for the multi-switch fabric (:mod:`repro.net`).

The contracts pinned here, in order:

* **Topology** — builders produce the advertised shapes, validation
  fails loudly, BFS paths are shortest, the per-flow ECMP tie-break is
  deterministic yet spreads distinct flows across equal-cost spines,
  and down links are routed around (or raise when the destination is
  unreachable).
* **Controller** — endpoint lookup, path memoization, and link
  failure/restore invalidation with an honest ``reroutes`` counter.
* **Single-switch golden** — a 1-switch fabric is bit-identical to
  :class:`~repro.sim.engine.VSwitchSimulator` on the same trace/config,
  the same pinning pattern one shard uses in ``test_sharded.py``.
* **Multi-switch accounting** — hop conservation
  (``hops_total == merged.packets``), per-switch attribution, per-role
  folds, run-to-run determinism, the merged peak rendered as the
  upper bound it is, and a failing switch named in the error.
* **Churn targeting** — ``ChurnConfig.switches`` applies the schedule
  only on the named switches.
* **Hop tracing** — per-switch derived sinks carry ``hop`` events
  labelled with the switch-qualified cache name.
"""

import json

import pytest

from conftest import seeded_trace, seeded_workload
from test_obs import result_fingerprint
from repro.net import (
    FabricController,
    FabricSimulator,
    Topology,
    leaf_spine,
    linear,
    ring,
)
from repro.obs import Telemetry
from repro.sim import ChurnConfig, GigaflowSystem, SimConfig, VSwitchSimulator
from repro.workload import acl_update_schedule, build_fabric_endpoints

#: The PSC ACL stage (as in test_churn.py).
ACL_TABLE = 5


def gigaflow_factory(_context):
    return GigaflowSystem(num_tables=4, table_capacity=100)


def pipeline_factory(_context):
    # Same spec + seed as the trace's workload => identical rule state.
    return seeded_workload().pipeline


def sim_config(**overrides):
    base = dict(max_idle=2.0, sweep_interval=1.0, fast_path=True)
    base.update(overrides)
    return SimConfig(**base)


def spread_endpoints(topology, n_flows=250, locality=0.3, seed=5):
    return build_fabric_endpoints(
        topology, n_flows, locality=locality, seed=seed
    )


# ---------------------------------------------------------------------------
# Topology


class TestTopology:
    def test_leaf_spine_shape(self):
        topo = leaf_spine(4, 2)
        assert topo.name == "leaf_spine_4x2"
        assert topo.by_role("leaf") == ("leaf0", "leaf1", "leaf2", "leaf3")
        assert topo.by_role("spine") == ("spine0", "spine1")
        # Full bipartite: every leaf sees every spine and nothing else.
        assert len(topo.links) == 8
        for leaf in topo.by_role("leaf"):
            assert topo.adjacency[leaf] == ("spine0", "spine1")

    def test_linear_and_ring_shapes(self):
        line = linear(4)
        assert line.switches == ("sw0", "sw1", "sw2", "sw3")
        assert len(line.links) == 3
        circle = ring(4)
        assert len(circle.links) == 4
        assert "sw0" in circle.adjacency["sw3"]

    def test_degenerate_single_switch(self):
        topo = linear(1)
        assert len(topo) == 1
        assert topo.shortest_path("sw0", "sw0") == ("sw0",)

    def test_validation_fails_loudly(self):
        with pytest.raises(ValueError):
            ring(2)
        with pytest.raises(ValueError):
            Topology("t", ("a", "a"), ())
        with pytest.raises(ValueError):
            Topology("t", ("a", "b"), (("a", "c"),))
        with pytest.raises(ValueError):
            Topology("t", ("a",), (("a", "a"),))

    def test_shortest_paths_are_shortest(self):
        topo = leaf_spine(4, 2)
        assert topo.shortest_path("leaf0", "leaf0") == ("leaf0",)
        path = topo.shortest_path("leaf0", "leaf2", flow_id=9)
        assert len(path) == 3
        assert path[0] == "leaf0" and path[-1] == "leaf2"
        assert topo.role(path[1]) == "spine"

    def test_ecmp_deterministic_and_spreading(self):
        topo = leaf_spine(4, 4)
        picks = {
            topo.shortest_path("leaf0", "leaf1", flow_id=fid)[1]
            for fid in range(64)
        }
        # Deterministic per flow...
        for fid in range(64):
            assert topo.shortest_path(
                "leaf0", "leaf1", flow_id=fid
            ) == topo.shortest_path("leaf0", "leaf1", flow_id=fid)
        # ...but spread across the equal-cost spines overall.
        assert len(picks) >= 3

    def test_down_links_route_around_or_raise(self):
        topo = leaf_spine(2, 2)
        down = frozenset({frozenset(("leaf0", "spine0"))})
        for fid in range(16):
            path = topo.shortest_path("leaf0", "leaf1", fid, down=down)
            assert path[1] == "spine1"
        both = down | {frozenset(("leaf0", "spine1"))}
        with pytest.raises(ValueError, match="no path"):
            topo.shortest_path("leaf0", "leaf1", 0, down=both)


class TestFabricController:
    def test_paths_memoized_and_endpoints_checked(self):
        topo = leaf_spine(2, 2)
        ctl = FabricController(topo, {1: ("leaf0", "leaf1")})
        first = ctl.path_for(1)
        assert ctl.path_for(1) is first
        assert ctl.paths_computed == 1
        with pytest.raises(KeyError):
            ctl.path_for(2)
        with pytest.raises(ValueError):
            FabricController(topo, {1: ("leaf0", "nope")})

    def test_fail_link_invalidates_crossing_flows_only(self):
        topo = leaf_spine(2, 2)
        endpoints = {fid: ("leaf0", "leaf1") for fid in range(32)}
        ctl = FabricController(topo, endpoints)
        via = {fid: ctl.path_for(fid)[1] for fid in endpoints}
        crossing = [f for f, spine in via.items() if spine == "spine0"]
        assert crossing  # ECMP sends some flows through each spine
        ctl.fail_link("leaf0", "spine0")
        assert ctl.reroutes == len(crossing)
        for fid in endpoints:
            assert ctl.path_for(fid)[1] == "spine1"
        ctl.restore_link("leaf0", "spine0")
        # Restore invalidates everything: ECMP re-balances fabric-wide.
        assert {ctl.path_for(f)[1] for f in endpoints} == {
            "spine0", "spine1"
        }
        with pytest.raises(ValueError, match="not a topology link"):
            ctl.fail_link("leaf0", "leaf1")


# ---------------------------------------------------------------------------
# Single-switch golden


class TestSingleSwitchGolden:
    def test_one_switch_fabric_bit_identical_to_classic_engine(self):
        classic_workload = seeded_workload()
        classic_hub = Telemetry()
        classic = VSwitchSimulator(
            classic_workload.pipeline,
            gigaflow_factory(None),
            sim_config(telemetry=classic_hub),
        ).run(seeded_trace(classic_workload))

        fabric_workload = seeded_workload()
        fabric = FabricSimulator(
            linear(1),
            pipeline_factory,
            gigaflow_factory,
            config=sim_config(telemetry=Telemetry()),
        )
        fres = fabric.run(seeded_trace(fabric_workload))

        assert result_fingerprint(fres.merged) == result_fingerprint(
            classic
        )
        assert (
            fres.registry.to_prometheus()
            == classic_hub.registry.to_prometheus()
        )
        # Exact, unmerged, unqualified: the golden run is the classic
        # engine's result object, not a 1-way merge of it.
        assert fres.merged.peak_entries_exact
        assert fres.merged.system == "gigaflow"
        assert fres.hops_total == fres.packets

    def test_multi_switch_requires_controller(self):
        with pytest.raises(ValueError, match="FabricController"):
            FabricSimulator(
                leaf_spine(2, 2), pipeline_factory, gigaflow_factory
            )


# ---------------------------------------------------------------------------
# Multi-switch accounting


class TestMultiSwitchFabric:
    def _run(self, **kwargs):
        topo = kwargs.pop("topology", leaf_spine(4, 2))
        workload = seeded_workload()
        trace = seeded_trace(workload)
        ctl = FabricController(topo, spread_endpoints(topo))
        fabric = FabricSimulator(
            topo,
            pipeline_factory,
            kwargs.pop("system_factory", gigaflow_factory),
            controller=ctl,
            config=kwargs.pop("config", sim_config(telemetry=Telemetry())),
            **kwargs,
        )
        return fabric.run(trace)

    def test_hop_conservation(self):
        fres = self._run()
        assert fres.hops_total == fres.merged.packets
        assert fres.hops_total == sum(
            r.packets for r in fres.switch_results.values()
        )
        assert fres.hops_total == sum(
            hops * count
            for hops, count in fres.path_length_counts.items()
        )
        assert fres.packets == sum(fres.path_length_counts.values())

    def test_per_switch_attribution_and_roles(self):
        fres = self._run()
        for name, result in fres.switch_results.items():
            assert result.system == f"gigaflow@{name}"
        leaf = fres.by_role("leaf")
        spine = fres.by_role("spine")
        assert leaf.packets + spine.packets == fres.hops_total
        rates = fres.hit_rate_by_role()
        assert set(rates) == {"leaf", "spine"}
        assert fres.by_role("nope") is None
        # Merged result carries the stripped base name and the bound.
        assert fres.merged.system == "gigaflow"
        assert not fres.merged.peak_entries_exact
        assert fres.merged.peak_entries == sum(
            fres.merged.peak_entries_per_shard
        )
        assert "<=" in fres.merged.peak_entries_label()
        assert fres.registry is not None

    def test_deterministic_run_to_run(self):
        first = self._run()
        second = self._run()
        assert result_fingerprint(first.merged) == result_fingerprint(
            second.merged
        )
        for name in first.switches:
            assert result_fingerprint(
                first.switch_results[name]
            ) == result_fingerprint(second.switch_results[name])

    def test_batch_size_invariant(self):
        big = self._run(batch_size=512)
        tiny = self._run(batch_size=3)
        assert result_fingerprint(big.merged) == result_fingerprint(
            tiny.merged
        )

    def test_link_failure_reroutes_future_packets(self):
        topo = leaf_spine(2, 2)
        workload = seeded_workload()
        trace = seeded_trace(workload)
        ctl = FabricController(topo, spread_endpoints(topo))
        fres = FabricSimulator(
            topo,
            pipeline_factory,
            gigaflow_factory,
            controller=ctl,
            config=sim_config(),
            link_failures=[(2.0, "leaf0", "spine0")],
        ).run(trace)
        assert fres.reroutes > 0

    def test_failure_of_a_non_link_is_rejected_at_construction(self):
        # Named with its time, which only the constructor knows.
        failures = [(1.0, "leaf0", "spine0"), (2.0, "leaf0", "leaf1")]
        with pytest.raises(ValueError, match="'leaf1'.*t=2.0.*not a topology"):
            self._run(link_failures=failures)

    def test_failing_switch_is_named(self):
        class InstallFails(GigaflowSystem):
            def install(self, traversal, generation, now):
                if self.cache.stats.misses == 10:
                    raise RuntimeError("install failed")
                return super().install(traversal, generation, now)

        def factory(context):
            system = InstallFails if context.name == "spine1" else GigaflowSystem
            return system(num_tables=4, table_capacity=100)

        with pytest.raises(RuntimeError, match="install failed") as excinfo:
            self._run(system_factory=factory)
        assert excinfo.value.part == "spine1"
        assert str(excinfo.value).startswith("spine1: RuntimeError: ")
        # Mid-trace, no switch has finished.
        assert excinfo.value.partial == {}

    def test_churn_targets_only_named_switches(self):
        topo = linear(3)
        workload = seeded_workload()
        trace = seeded_trace(workload)
        endpoints = {
            fid: ("sw0", "sw2") for fid in range(250)
        }
        churn = ChurnConfig(
            schedule=acl_update_schedule(ACL_TABLE, 1.0, revert_at=3.0),
            switches=("sw1",),
        )
        fabric = FabricSimulator(
            topo,
            pipeline_factory,
            gigaflow_factory,
            controller=FabricController(topo, endpoints),
            config=sim_config(telemetry=Telemetry(), churn=churn),
        )
        fabric.run(trace)
        assert fabric.drivers["sw1"].churn.digest()["events"] == 2
        for other in ("sw0", "sw2"):
            assert fabric.drivers[other].churn is None

    def test_churn_without_targeting_hits_every_switch(self):
        topo = linear(2)
        workload = seeded_workload()
        trace = seeded_trace(workload)
        endpoints = {fid: ("sw0", "sw1") for fid in range(250)}
        churn = ChurnConfig(
            schedule=acl_update_schedule(ACL_TABLE, 1.0, revert_at=3.0)
        )
        fabric = FabricSimulator(
            topo,
            pipeline_factory,
            gigaflow_factory,
            controller=FabricController(topo, endpoints),
            config=sim_config(telemetry=Telemetry(), churn=churn),
        )
        fres = fabric.run(trace)
        for name in fres.switches:
            assert fabric.drivers[name].churn.digest()["events"] == 2


# ---------------------------------------------------------------------------
# Hop tracing


class TestHopTracing:
    def test_per_switch_sinks_carry_hop_events(self, tmp_path):
        topo = leaf_spine(2, 2)
        workload = seeded_workload()
        trace = seeded_trace(workload)
        sink = tmp_path / "fabric.jsonl"
        fres = FabricSimulator(
            topo,
            pipeline_factory,
            gigaflow_factory,
            controller=FabricController(topo, spread_endpoints(topo)),
            config=sim_config(
                telemetry=Telemetry(trace_sink=str(sink))
            ),
        ).run(trace)
        hop_events = 0
        for name in topo.switches:
            derived = tmp_path / f"fabric.jsonl.{name}"
            assert derived.exists(), f"missing derived sink for {name}"
            events = [
                json.loads(line)
                for line in derived.read_text().splitlines()
            ]
            hops = [e for e in events if e["event"] == "hop"]
            hop_events += len(hops)
            for event in hops:
                assert event["cache"] == f"gigaflow@{name}"
                assert 0 <= event["hop"] < event["path_len"]
        assert hop_events == fres.hops_total

    def test_single_switch_golden_has_no_derived_sinks(self, tmp_path):
        workload = seeded_workload()
        sink = tmp_path / "solo.jsonl"
        FabricSimulator(
            linear(1),
            pipeline_factory,
            gigaflow_factory,
            config=sim_config(telemetry=Telemetry(trace_sink=str(sink))),
        ).run(seeded_trace(workload))
        assert sink.exists()
        assert not (tmp_path / "solo.jsonl.sw0").exists()
        assert '"hop"' not in sink.read_text()


# ---------------------------------------------------------------------------
# Endpoint builder


class TestFabricEndpoints:
    def test_locality_controls_cross_leaf_share(self):
        topo = leaf_spine(8, 2)
        local = build_fabric_endpoints(topo, 400, locality=1.0, seed=3)
        assert all(src == dst for src, dst in local.values())
        cross = build_fabric_endpoints(topo, 400, locality=0.0, seed=3)
        assert all(src != dst for src, dst in cross.values())
        mixed = build_fabric_endpoints(topo, 400, locality=0.5, seed=3)
        share = sum(1 for s, d in mixed.values() if s == d) / 400
        assert 0.35 < share < 0.65

    def test_deterministic_and_leaf_attached(self):
        topo = leaf_spine(4, 2)
        one = build_fabric_endpoints(topo, 100, locality=0.4, seed=9)
        two = build_fabric_endpoints(topo, 100, locality=0.4, seed=9)
        assert one == two
        leaves = set(topo.by_role("leaf"))
        for src, dst in one.values():
            assert src in leaves and dst in leaves

    def test_validation(self):
        topo = leaf_spine(2, 2)
        with pytest.raises(ValueError):
            build_fabric_endpoints(topo, -1)
        with pytest.raises(ValueError):
            build_fabric_endpoints(topo, 10, locality=1.5)
