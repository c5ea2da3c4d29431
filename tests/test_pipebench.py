"""Tests for Pipebench workload generation."""

import numpy as np
import pytest

from repro.pipeline import ENTRY_TABLE, Disposition, PIPELINES, PSC, OLS
from repro.serve import stream_trace
from repro.workload import (
    Pipebench,
    PipebenchConfig,
    TraceProfile,
    build_workload,
)

N_FLOWS = 400


@pytest.fixture(scope="module")
def psc_workload():
    return build_workload(PSC, n_flows=N_FLOWS, locality="high", seed=3)


class TestWorkloadBuild:
    def test_flow_count(self, psc_workload):
        assert psc_workload.n_flows == N_FLOWS

    def test_all_pilots_cacheable(self, psc_workload):
        for pilot in psc_workload.pilots:
            assert pilot.cacheable
            assert pilot.traversal is not None
            assert pilot.traversal.disposition != Disposition.CONTROLLER

    def test_pilots_are_unique_classes(self, psc_workload):
        keys = {p.class_key for p in psc_workload.pilots}
        assert len(keys) == N_FLOWS
        flows = {p.flow for p in psc_workload.pilots}
        assert len(flows) == N_FLOWS

    def test_traversals_start_at_pipeline_entry(self, psc_workload):
        for pilot in psc_workload.pilots:
            assert pilot.traversal.table_ids[0] == ENTRY_TABLE

    def test_rules_installed(self, psc_workload):
        pipeline = psc_workload.pipeline
        assert sum(len(table) for table in pipeline.tables.values()) > 0

    def test_deterministic_by_seed(self):
        a = build_workload(PSC, n_flows=50, locality="high", seed=9)
        b = build_workload(PSC, n_flows=50, locality="high", seed=9)
        assert [p.flow for p in a.pilots] == [p.flow for p in b.pilots]

    def test_seed_changes_workload(self):
        a = build_workload(PSC, n_flows=50, locality="high", seed=1)
        b = build_workload(PSC, n_flows=50, locality="high", seed=2)
        assert [p.flow for p in a.pilots] != [p.flow for p in b.pilots]

    def test_low_locality_uses_bigger_pools(self):
        high = PipebenchConfig(n_flows=1000, locality="high").resolved()
        low = PipebenchConfig(n_flows=1000, locality="low").resolved()
        assert low.n_src_hosts > high.n_src_hosts
        assert low.n_services > high.n_services

    def test_flows_share_sub_structure(self, psc_workload):
        """Many flows share eth_src (host) and ip_dst (service) values —
        the sharing Fig. 4/Fig. 11 rely on."""
        srcs = [p.flow.get("eth_src") for p in psc_workload.pilots]
        assert len(set(srcs)) < len(srcs) / 2


class TestTrace:
    def test_trace_sorted_by_time(self, psc_workload):
        trace = psc_workload.trace(seed=1)
        times = [p.timestamp for p in stream_trace(trace)]
        assert times == sorted(times)
        assert len(trace) == len(times)

    def test_trace_covers_all_flows(self, psc_workload):
        trace = psc_workload.trace(seed=1)
        seen = {p.flow_id for p in stream_trace(trace)}
        assert seen == set(range(N_FLOWS))

    def test_packets_carry_pilot_headers(self, psc_workload):
        trace = psc_workload.trace(seed=1)
        pilots = psc_workload.pilots
        for packet in stream_trace(trace):
            assert packet.flow == pilots[packet.flow_id].flow
            break

    def test_trace_offset(self, psc_workload):
        profile = TraceProfile(duration=10.0)
        trace = psc_workload.trace(profile=profile, seed=1, offset=100.0)
        first = next(stream_trace(trace))
        assert first.timestamp >= 100.0

    def test_merged_traces_interleave(self, psc_workload):
        half = len(psc_workload.pilots) // 2
        t1 = psc_workload.trace(seed=1, pilots=psc_workload.pilots[:half])
        t2 = psc_workload.trace(
            seed=2, offset=30.0, pilots=psc_workload.pilots[half:]
        )
        merged = t1.merged_with(t2)
        assert len(merged) == len(t1) + len(t2)
        times = [p.timestamp for p in stream_trace(merged)]
        assert times == sorted(times)
        ids = {p.flow_id for p in stream_trace(merged)}
        assert max(ids) == len(merged.pilots) - 1


class TestLargerPipelines:
    def test_ols_builds_cleanly(self):
        workload = build_workload(OLS, n_flows=200, locality="high", seed=5)
        # Shadowed classes are dropped at finalise; nearly all survive.
        assert workload.n_flows >= 190
        assert all(pilot.cacheable for pilot in workload.pilots)
        # OLS flows take diverse traversal shapes.
        shapes = {p.traversal.table_ids for p in workload.pilots}
        assert len(shapes) > 3


class TestTemplatePick:
    """The pilot loop picks a template with one ``rng.random()`` searched
    in a cumulative-weight table: the algorithm ``Generator.choice`` runs
    for one draw with ``p``.  If a numpy release changes ``choice``,
    this fails instead of every workload drifting silently."""

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    @pytest.mark.parametrize("seed", range(5))
    def test_search_draws_what_choice_draws(self, name, seed):
        spec = PIPELINES[name]
        cdf = Pipebench(spec)._template_cdf
        weights = np.array([t.weight for t in spec.traversals], dtype=float)
        weights /= weights.sum()
        by_choice = np.random.default_rng(seed)
        by_search = np.random.default_rng(seed)
        n = len(spec.traversals)
        for _ in range(10_000):
            assert int(
                cdf.searchsorted(by_search.random(), side="right")
            ) == int(by_choice.choice(n, p=weights))
