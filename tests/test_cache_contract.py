"""Conformance of every cache to the one :class:`~repro.cache.base.FlowCache`
contract: Microflow, Megaflow, the OVS hierarchy and Gigaflow.

* :meth:`~repro.cache.base.FlowCache.lookup` is
  ``lookup_traced(...)[0]``: the same result, and the same counters, use
  times and LRU order left behind;
* replaying a hit's record is a fresh lookup of the same flow;
* :meth:`~repro.cache.base.FlowCache.remove` departs through
  ``_depart`` with the reason it was given;
* ``install_traversal(traversal, generation, now)`` installs a traced
  traversal into any of them.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache import CacheHierarchy, MegaflowCache, MicroflowCache
from repro.cache.base import apply_hit
from repro.core import GigaflowCache, IncrementalRevalidator
from repro.flow import ActionList, Output
from conftest import DIFFERENTIAL, flow, rule
from test_eviction_properties import Rig, entry_key

KINDS = ("microflow", "megaflow", "hierarchy", "gigaflow")


def rig(kind, capacity=4):
    return Rig(kind, "lru", capacity, fast_path=False)


#: Lookup-heavy sequences over few flows: a flow is often looked up
#: again before the cache next changes, with other hits in between.
LOOKUP_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("install", "install") + ("lookup",) * 6 + ("sweep", "clear")
        ),
        st.integers(0, 5),
    ),
    min_size=10,
    max_size=80,
)


class TestLookupIsLookupTraced:
    @settings(DIFFERENTIAL, max_examples=60)
    @given(kind=st.sampled_from(KINDS), ops=LOOKUP_OPS)
    def test_same_result_counters_use_times_and_lru_order(self, kind, ops):
        plain, traced = rig(kind), rig(kind)
        traced.lookup = lambda flow, now: traced.cache.lookup_traced(
            flow, now
        )[0]
        now = 0.0
        for op, idx in ops:
            now += 1.0
            if op == "lookup":
                packet = plain.packet(idx)
                assert plain.lookup(packet, now) == traced.lookup(
                    packet, now
                )
            else:
                plain.apply(op, idx, now)
                traced.apply(op, idx, now)
            assert plain.state() == traced.state()


def replay_against_lookup(kind, ops):
    """Drive two twins: one keeps each hit's record and, while its
    cache has not changed, replays it for the flow's next lookup,
    however many other lookups came between; the other always looks
    up.  Checks both leave the same result, counters, use times and LRU
    order after every op; returns how many replays ran."""
    replayed, looked_up = rig(kind), rig(kind)
    cache = replayed.cache
    records = {}
    replays = 0
    now = 0.0
    for op, idx in ops:
        now += 1.0
        if op != "lookup":
            replayed.apply(op, idx, now)
            looked_up.apply(op, idx, now)
            continue
        packet = replayed.packet(idx)
        epoch = cache.mutation_epoch
        kept = records.get(idx)
        if kept is not None and kept[0] == epoch:
            result = apply_hit(kept[1], now)
            replays += 1
        else:
            result, record = cache.lookup_traced(packet, now)
            if record is not None and cache.mutation_epoch == epoch:
                records[idx] = (epoch, record)
        assert result == looked_up.cache.lookup(packet, now)
        assert replayed.state() == looked_up.state()
    return replays


class TestReplayIsAFreshLookup:
    @settings(DIFFERENTIAL, max_examples=60)
    @given(kind=st.sampled_from(KINDS), ops=LOOKUP_OPS)
    def test_replay_equals_lookup(self, kind, ops):
        replay_against_lookup(kind, ops)

    @pytest.mark.parametrize("kind", KINDS)
    def test_records_replay_between_other_hits(self, kind):
        ops = [("install", idx) for idx in range(3)] + [
            ("lookup", idx) for idx in (0, 1, 0, 2, 1, 0)
        ]
        assert replay_against_lookup(kind, ops) == 3


class TestRemove:
    @pytest.mark.parametrize("kind", KINDS)
    def test_remove_departs_with_its_reason(self, kind):
        """The hierarchy's entries live in (and leave from) its levels:
        removing one through the hierarchy departs from the level that
        holds it."""
        each = rig(kind)
        for idx in range(3):
            each.install(idx, float(idx))
        for leaf in each.leaves:
            departures = []
            depart = leaf._depart
            leaf._depart = lambda entries, reason, age=None: (
                departures.append((list(entries), reason))
                or depart(entries, reason, age)
            )
            victim = next(iter(leaf))
            epoch, evictions = leaf.mutation_epoch, leaf.stats.evictions
            each.hub.evicts.clear()
            each.cache.remove(victim, "why")
            assert departures == [([victim], "why")]
            assert entry_key(victim) not in map(entry_key, leaf)
            assert leaf.stats.evictions == evictions + 1
            assert leaf.mutation_epoch == epoch + 1
            assert each.hub.evicts == [(leaf.telemetry_name, "why", 1)]
            with pytest.raises(KeyError):
                each.cache.remove(victim, "why")

    @pytest.mark.parametrize("make", (
        lambda: MegaflowCache(capacity=8),
        lambda: GigaflowCache(num_tables=4, table_capacity=8),
    ), ids=("megaflow", "gigaflow"))
    def test_revalidation_evicts_through_remove(
        self, make, mini_pipeline, default_flow
    ):
        cache = make()
        cache.install_traversal(mini_pipeline.execute(default_flow))
        reasons = []
        remove = cache.remove
        cache.remove = lambda entry, reason: (
            reasons.append(reason) or remove(entry, reason)
        )
        mini_pipeline.install(
            3,
            rule({"ip_proto": 6, "tp_dst": 443}, priority=999,
                 actions=[Output(42)]),
        )
        report = IncrementalRevalidator(mini_pipeline, cache).revalidate()
        assert report.entries_evicted == len(reasons) > 0
        assert set(reasons) == {"reval"}


class TestInstallTraversal:
    @pytest.mark.parametrize("make", (
        lambda: MicroflowCache(capacity=8),
        lambda: MegaflowCache(capacity=8),
        lambda: CacheHierarchy(8, 8),
        lambda: GigaflowCache(num_tables=4, table_capacity=8),
    ), ids=KINDS)
    def test_one_signature_installs_a_hit(
        self, make, mini_pipeline, default_flow
    ):
        cache = make()
        traversal = mini_pipeline.execute(default_flow)
        cache.install_traversal(traversal, mini_pipeline.generation, 1.0)
        result = cache.lookup(default_flow, 2.0)
        assert result.hit
        assert result.actions.output_port() == 9
        assert max(cache.last_used_times()) == 2.0


class TestHierarchyEpoch:
    """The packet loop reads a cache's ``mutation_epoch`` on every
    memoized hit, so the hierarchy keeps its own as a plain attribute:
    it must stay the sum of its levels' after every operation, the
    Megaflow-hit promotion inside a lookup included."""

    def test_the_epoch_is_the_levels_sum_after_every_operation(
        self, mini_pipeline, default_flow
    ):
        cache = CacheHierarchy(microflow_capacity=2, megaflow_capacity=2)
        assert "mutation_epoch" in vars(cache)
        seen = [cache.mutation_epoch]

        def moved():
            epoch = cache.mutation_epoch
            assert epoch == (
                cache.microflow.mutation_epoch
                + cache.megaflow.mutation_epoch
            )
            seen.append(epoch)
            return epoch != seen[-2]

        traversal = mini_pipeline.execute(default_flow)
        cache.install_traversal(traversal, mini_pipeline.generation, 1.0)
        assert moved()
        assert cache.lookup(default_flow, 2.0).hit  # a Microflow hit
        assert not moved()
        # Same traversal, other source ports: Megaflow hits, each
        # promoted into (and, past two, evicting from) the Microflow
        # level — mutations made inside the lookup.
        for port in range(3):
            result = cache.lookup(flow(tp_src=port), 3.0 + port)
            assert result.hit and result.tables_hit == 2
            assert moved()
        assert cache.microflow.stats.evictions == 2
        assert not cache.lookup(flow(ip_proto=17), 6.0).hit
        assert not moved()
        cache.remove(next(iter(cache.microflow)), "reval")
        assert moved()
        cache.remove(next(iter(cache.megaflow)), "reval")
        assert moved()
        assert cache.evict_idle(100.0, 1.0) == 1
        assert moved()
        assert cache.evict_idle(100.0, 1.0) == 0
        assert not moved()
        cache.install_traversal(traversal, mini_pipeline.generation, 101.0)
        assert moved()
        cache.clear()
        assert moved()
        # A level changed directly still moves the hierarchy's epoch.
        cache.microflow.install(default_flow, ActionList([Output(1)]), 102.0)
        assert moved()
