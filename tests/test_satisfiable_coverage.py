"""Tests for chain satisfiability and the exact satisfiable-chain count."""

import importlib
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    CoverageStateLimitError,
    GigaflowCache,
    TAG_DONE,
    chain_satisfiable,
    coverage,
    satisfiable_coverage,
)
from repro.core.ltm import LtmRule
from repro.experiments import SMALL_SCALE, table2_coverage
from repro.flow import ActionList, Output, SetField, TernaryMatch, ip, prefix_mask
from repro.pipeline import ENTRY_TABLE
from conftest import DIFFERENTIAL, flow


def ltm(values, masks=None, tag=0, next_tag=TAG_DONE, actions=(Output(1),)):
    return LtmRule(
        tag=tag,
        match=TernaryMatch.from_fields(values, masks),
        priority=1,
        actions=ActionList(actions),
        next_tag=next_tag,
        parent_flow=flow(),
    )


class TestChainSatisfiable:
    def test_disjoint_fields_always_satisfiable(self):
        chain = [
            ltm({"eth_dst": 1}, next_tag=5, actions=()),
            ltm({"tp_dst": 443}, tag=5),
        ]
        assert chain_satisfiable(chain)

    def test_conflicting_exact_values_unsatisfiable(self):
        chain = [
            ltm({"ip_src": ip("10.0.0.1")}, next_tag=5, actions=()),
            ltm({"ip_src": ip("10.0.0.2")}, tag=5),
        ]
        assert not chain_satisfiable(chain)

    def test_conflicting_prefixes_unsatisfiable(self):
        chain = [
            ltm({"ip_src": ip("10.0.0.0")},
                masks={"ip_src": prefix_mask(16)}, next_tag=5, actions=()),
            ltm({"ip_src": ip("10.9.0.0")},
                masks={"ip_src": prefix_mask(16)}, tag=5),
        ]
        assert not chain_satisfiable(chain)

    def test_nested_prefixes_satisfiable(self):
        chain = [
            ltm({"ip_src": ip("10.0.0.0")},
                masks={"ip_src": prefix_mask(8)}, next_tag=5, actions=()),
            ltm({"ip_src": ip("10.1.0.0")},
                masks={"ip_src": prefix_mask(16)}, tag=5),
        ]
        assert chain_satisfiable(chain)

    def test_rewrite_overrides_packet_constraint(self):
        """A set-field makes later matches check the rewritten value, so
        a value impossible for the original packet is fine."""
        chain = [
            ltm({"ip_dst": ip("1.1.1.1")},
                actions=(SetField("ip_dst", ip("9.9.9.9")),),
                next_tag=5),
            ltm({"ip_dst": ip("9.9.9.9")}, tag=5),
        ]
        assert chain_satisfiable(chain)

    def test_rewrite_mismatch_unsatisfiable(self):
        chain = [
            ltm({"ip_dst": ip("1.1.1.1")},
                actions=(SetField("ip_dst", ip("9.9.9.9")),),
                next_tag=5),
            ltm({"ip_dst": ip("8.8.8.8")}, tag=5),
        ]
        assert not chain_satisfiable(chain)

    def test_empty_chain(self):
        assert not chain_satisfiable([])


#: Small value pools, so random rules overlap, nest and conflict.
PREFIXES = [ip(a) for a in ("10.0.0.0", "10.1.0.0", "10.1.2.0", "11.0.0.0")]
PORTS = [80, 443, 0x50FF]


@st.composite
def _header_part(draw):
    """One field's ``(name, value, mask)``."""
    name = draw(st.sampled_from(["ip_src", "ip_dst", "tp_dst"]))
    if name == "tp_dst":
        return name, draw(st.sampled_from(PORTS)), draw(
            st.sampled_from([0xFFFF, 0xFF00]))
    return name, draw(st.sampled_from(PREFIXES)), prefix_mask(
        draw(st.sampled_from([8, 16, 24])))


@st.composite
def _rule(draw):
    """``(table, rule)``: a rule on one or two fields, some rewriting
    ``ip_dst`` or ``tp_dst``."""
    parts = {name: (value, mask) for name, value, mask in
             draw(st.lists(_header_part(), min_size=1, max_size=2))}
    sets = draw(st.lists(st.one_of(
        st.builds(SetField, st.just("ip_dst"), st.sampled_from(PREFIXES)),
        st.builds(SetField, st.just("tp_dst"), st.sampled_from(PORTS)),
    ), max_size=1))
    return draw(st.integers(0, 2)), ltm(
        {name: value for name, (value, _) in parts.items()},
        masks={name: mask for name, (_, mask) in parts.items()},
        tag=draw(st.integers(0, 1)),
        next_tag=draw(st.sampled_from([1, TAG_DONE])),
        actions=tuple(sets),
    )


def brute_force(cache):
    """Every DAG chain, enumerated and checked by :func:`chain_satisfiable`:
    ``(chains, satisfiable chains)``."""
    tables = cache.tables

    def walk(first, tag, chain):
        chains = satisfiable = 0
        for index in range(first, len(tables)):
            for rule in tables[index].rules_with_tag(tag):
                path = chain + [rule]
                if rule.next_tag == TAG_DONE:
                    chains += 1
                    satisfiable += chain_satisfiable(path)
                else:
                    more, more_ok = walk(index + 1, rule.next_tag, path)
                    chains += more
                    satisfiable += more_ok
        return chains, satisfiable

    return walk(0, ENTRY_TABLE, [])


class TestEstimate:
    def test_all_satisfiable_when_fields_disjoint(self):
        cache = GigaflowCache(num_tables=2, table_capacity=16)
        for i in range(3):
            cache.tables[0].insert(
                ltm({"eth_dst": i}, next_tag=5, actions=()))
        for i in range(4):
            cache.tables[1].insert(ltm({"tp_dst": i}, tag=5))
        assert coverage(cache) == satisfiable_coverage(cache) == 12

    def test_detects_incompatible_cross_products(self):
        """Chains pairing segment pinned to prefix A with a continuation
        pinned to prefix B are counted by the DAG but unsatisfiable."""
        cache = GigaflowCache(num_tables=2, table_capacity=16)
        for prefix in ("10.1.0.0", "10.2.0.0"):
            cache.tables[0].insert(
                ltm({"ip_src": ip(prefix)},
                    masks={"ip_src": prefix_mask(16)},
                    next_tag=5, actions=()))
            cache.tables[1].insert(
                ltm({"ip_src": ip(prefix)},
                    masks={"ip_src": prefix_mask(16)}, tag=5))
        assert coverage(cache) == 4  # DAG counts all pairs
        # Only the 2 matched pairs are satisfiable.
        assert satisfiable_coverage(cache) == 2

    def test_empty_cache(self):
        cache = GigaflowCache(num_tables=2, table_capacity=4)
        assert coverage(cache) == satisfiable_coverage(cache) == 0

    def test_real_workload_mostly_satisfiable(self):
        from repro.pipeline import PSC
        from repro.workload import build_workload

        workload = build_workload(PSC, n_flows=300, locality="high",
                                  seed=5)
        cache = GigaflowCache(num_tables=4, table_capacity=10**6)
        for pilot in workload.pilots:
            cache.install_traversal(pilot.traversal)
        exact = satisfiable_coverage(cache)
        # Most raw chains pair segments pinned to different hosts or
        # prefixes (unsatisfiable), but the satisfiable remainder still
        # covers far more flow classes than were installed — the Table 2
        # effect with honest accounting.
        assert workload.n_flows < exact < coverage(cache)


class TestExactAgainstBruteForce:
    def test_rare_satisfiable_chains_are_counted(self):
        """10^6 tag-linked chains, each table's rules pinned to one of
        100 source /16s: only the 100 chains that stay on one prefix
        are satisfiable.  A fraction of 10^-4 is below what sampling
        chains can resolve; the count is exact regardless."""
        cache = GigaflowCache(num_tables=3, table_capacity=128)
        for index, table in enumerate(cache.tables):
            for block in range(100):
                table.insert(ltm(
                    {"ip_src": ip(f"10.{block}.0.0")},
                    masks={"ip_src": prefix_mask(16)},
                    tag=index,
                    next_tag=TAG_DONE if index == 2 else index + 1,
                    actions=() if index < 2 else (Output(1),),
                ))
        assert coverage(cache) == 100 ** 3
        assert satisfiable_coverage(cache) == 100

    def test_a_second_rewrite_replaces_the_first(self):
        """A later match reads the last value written to a field."""
        cache = GigaflowCache(num_tables=3, table_capacity=4)
        for index, value in enumerate(("1.1.1.1", "2.2.2.2")):
            cache.tables[index].insert(ltm(
                {"in_port": 1}, tag=index, next_tag=index + 1,
                actions=(SetField("ip_dst", ip(value)),)))
        for value in ("1.1.1.1", "2.2.2.2"):
            cache.tables[2].insert(ltm({"ip_dst": ip(value)}, tag=2))
        assert brute_force(cache) == (2, 1)
        assert satisfiable_coverage(cache) == 1

    @settings(DIFFERENTIAL, max_examples=150)
    @given(num_tables=st.integers(2, 3),
           rules=st.lists(_rule(), min_size=4, max_size=20))
    def test_random_caches(self, num_tables, rules):
        cache = GigaflowCache(num_tables=num_tables, table_capacity=64)
        for table, rule in rules:
            cache.tables[table % num_tables].insert(rule)
        chains, satisfiable = brute_force(cache)
        assert chains == coverage(cache)
        assert satisfiable_coverage(cache) == satisfiable

    @pytest.mark.parametrize("pipeline", ["OFD", "PSC", "OLS", "ANT", "OTL"])
    def test_installed_caches(self, pipeline):
        from repro.pipeline import get_pipeline_spec
        from repro.workload import build_workload

        workload = build_workload(get_pipeline_spec(pipeline), n_flows=120,
                                  locality="high", seed=7)
        cache = GigaflowCache(num_tables=4, table_capacity=30,
                              eviction="reject")
        for pilot in workload.pilots:
            if pilot.cacheable:
                cache.install_traversal(pilot.traversal)
        assert satisfiable_coverage(cache) == brute_force(cache)[1]


class TestStateLimit:
    """Past its bound on live states the count raises a named error
    rather than grow until memory runs out."""

    @staticmethod
    def bound_at(monkeypatch, states):
        monkeypatch.setattr(
            importlib.import_module("repro.core.coverage"),
            "MAX_LIVE_STATES", states,
        )

    def test_names_the_table_and_the_state_count(self, monkeypatch):
        cache = GigaflowCache(num_tables=2, table_capacity=16)
        for prefix in ("10.1.0.0", "10.2.0.0", "10.3.0.0"):
            cache.tables[0].insert(
                ltm({"ip_src": ip(prefix)},
                    masks={"ip_src": prefix_mask(16)},
                    next_tag=5, actions=()))
            cache.tables[1].insert(
                ltm({"ip_src": ip(prefix)},
                    masks={"ip_src": prefix_mask(16)}, tag=5))
        self.bound_at(monkeypatch, 3)
        assert satisfiable_coverage(cache) == 3
        self.bound_at(monkeypatch, 2)
        with pytest.raises(CoverageStateLimitError) as raised:
            satisfiable_coverage(cache)
        assert (raised.value.table, raised.value.states) == (0, 3)

    def test_table2_names_the_pipeline(self, monkeypatch):
        self.bound_at(monkeypatch, 1)
        with pytest.raises(CoverageStateLimitError, match="^OLS: ") as raised:
            table2_coverage(("OLS",), scale=replace(SMALL_SCALE, n_flows=150))
        assert raised.value.pipeline == "OLS"
