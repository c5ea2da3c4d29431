"""Unit tests for the Tuple Space Search classifier."""

import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.classify import PrefixTrie, TupleSpaceClassifier
from repro.classify.tss import _Group
from repro.flow import (
    ActionList,
    Output,
    TernaryMatch,
    ip,
    prefix_mask,
)
from repro.pipeline import PipelineRule
from conftest import DIFFERENTIAL, flow


def make_rule(values, masks=None, priority=10):
    return PipelineRule(
        match=TernaryMatch.from_fields(values, masks),
        priority=priority,
        actions=ActionList([Output(1)]),
    )


@pytest.fixture
def classifier():
    return TupleSpaceClassifier()


class TestBasicLookup:
    def test_empty_classifier_misses(self, classifier):
        assert classifier.climb(flow().packed) == (None, 0)

    def test_exact_hit(self, classifier):
        rule = make_rule({"tp_dst": 443})
        classifier.insert(rule)
        assert classifier.climb(flow(tp_dst=443).packed)[0] is rule
        assert classifier.climb(flow(tp_dst=80).packed)[0] is None

    def test_priority_wins_across_groups(self, classifier):
        broad = make_rule(
            {"ip_dst": ip("192.168.0.0")},
            masks={"ip_dst": prefix_mask(16)},
            priority=10,
        )
        narrow = make_rule(
            {"ip_dst": ip("192.168.1.0")},
            masks={"ip_dst": prefix_mask(24)},
            priority=20,
        )
        classifier.insert(broad)
        classifier.insert(narrow)
        inside = flow(ip_dst=ip("192.168.1.5"))
        outside = flow(ip_dst=ip("192.168.9.5"))
        assert classifier.climb(inside.packed)[0] is narrow
        assert classifier.climb(outside.packed)[0] is broad

    def test_same_mask_group_shares_hash(self, classifier):
        a = make_rule({"tp_dst": 443})
        b = make_rule({"tp_dst": 80})
        classifier.insert(a)
        classifier.insert(b)
        assert classifier.group_count == 1
        assert classifier.climb(flow(tp_dst=80).packed)[0] is b

    def test_early_termination_by_priority(self, classifier):
        # Matching the highest-priority group first means lower groups
        # are not probed.
        high = make_rule({"tp_dst": 443}, priority=100)
        low = make_rule({"ip_proto": 6}, priority=1)
        classifier.insert(high)
        classifier.insert(low)
        assert classifier.climb(flow(tp_dst=443).packed) == (high, 1)

    def test_remove(self, classifier):
        rule = make_rule({"tp_dst": 443})
        classifier.insert(rule)
        classifier.remove(rule)
        assert classifier.climb(flow(tp_dst=443).packed)[0] is None
        assert len(classifier) == 0
        assert classifier.group_count == 0

    def test_remove_missing_raises(self, classifier):
        with pytest.raises(KeyError):
            classifier.remove(make_rule({"tp_dst": 1}))

    def test_iteration_and_len(self, classifier):
        rules = [make_rule({"tp_dst": p}) for p in (1, 2, 3)]
        for rule in rules:
            classifier.insert(rule)
        assert len(classifier) == 3
        assert set(classifier) == set(rules)

    def test_clear(self, classifier):
        classifier.insert(make_rule({"tp_dst": 1}))
        classifier.clear()
        assert len(classifier) == 0
        assert classifier.climb(flow(tp_dst=1).packed)[0] is None


class TestUnwildcarding:
    def test_hit_includes_matched_rule_mask(self, classifier):
        classifier.insert(make_rule({"tp_dst": 443}))
        result = classifier.lookup(flow(tp_dst=443))
        assert result.wildcard.mask_of("tp_dst") == 0xFFFF

    def test_staged_miss_unwildcards_only_early_stages(self, classifier):
        # Group matches in_port (port stage) + tp_dst (L4 stage).  A flow
        # that fails already at the port stage must not un-wildcard L4.
        classifier.insert(make_rule({"in_port": 5, "tp_dst": 443}))
        result = classifier.lookup(flow(in_port=9))
        assert result.wildcard.mask_of("in_port") == 0xFFFF
        assert result.wildcard.mask_of("tp_dst") == 0

    def test_staged_miss_at_l4_unwildcards_through_l4(self, classifier):
        classifier.insert(make_rule({"in_port": 1, "tp_dst": 9999}))
        result = classifier.lookup(flow(in_port=1, tp_dst=443))
        assert result.wildcard.mask_of("in_port") == 0xFFFF
        assert result.wildcard.mask_of("tp_dst") == 0xFFFF

    def test_trie_keeps_ip_masks_minimal(self, classifier):
        """The §4.2.3 example end-to-end through the classifier."""
        prefixes = [
            (ip("192.168.14.15"), 32, 400),
            (ip("192.168.14.0"), 24, 300),
            (ip("192.168.0.0"), 16, 200),
            (ip("192.0.0.0"), 8, 100),
        ]
        for value, plen, priority in prefixes:
            classifier.insert(
                make_rule(
                    {"ip_dst": value},
                    masks={"ip_dst": prefix_mask(plen)},
                    priority=priority,
                )
            )
        result = classifier.lookup(flow(ip_dst=ip("192.168.21.27")))
        assert result.rule.priority == 200  # matches the /16
        assert result.wildcard.mask_of("ip_dst") == ip("255.255.240.0")

    def test_unwildcard_correctness_property(self, classifier):
        """Any flow agreeing on the returned wildcard bits must match the
        same rule — the invariant cache entries rely on."""
        classifier.insert(make_rule(
            {"ip_dst": ip("10.0.0.0")},
            masks={"ip_dst": prefix_mask(8)}, priority=1))
        classifier.insert(make_rule(
            {"ip_dst": ip("10.1.0.0")},
            masks={"ip_dst": prefix_mask(16)}, priority=2))
        probe = flow(ip_dst=ip("10.9.1.2"))
        result = classifier.lookup(probe)
        # Perturb bits outside the wildcard; the winner may not change.
        mask = result.wildcard.mask_of("ip_dst")
        perturbed = flow(ip_dst=(probe.get("ip_dst") ^ (~mask & 0xFF)))
        assert classifier.climb(perturbed.packed)[0] is result.rule


class TestLazyTrieMasks:
    """A trie is walked only for a field some probed group examined
    through a prefix-shaped mask — and then once, however many did."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        mask_for = PrefixTrie.mask_for

        def counted(trie, value):
            calls.append(value)
            return mask_for(trie, value)

        monkeypatch.setattr(PrefixTrie, "mask_for", counted)
        return calls

    def test_group_behind_a_better_hit_is_not_walked(self, classifier, walks):
        classifier.insert(make_rule({"tp_dst": 443}, priority=20))
        classifier.insert(make_rule(
            {"ip_dst": ip("192.168.1.0")},
            masks={"ip_dst": prefix_mask(24)}, priority=10))
        result = classifier.lookup(flow(tp_dst=443))
        assert result.groups_probed == 1
        assert result.wildcard.fields_matched() == ("tp_dst",)
        assert walks == []

    def test_miss_before_the_l3_stage_is_not_walked(self, classifier, walks):
        classifier.insert(make_rule(
            {"in_port": 5, "ip_dst": ip("192.168.1.0")},
            masks={"in_port": None, "ip_dst": prefix_mask(24)}))
        result = classifier.lookup(flow(in_port=9))
        assert result.wildcard.fields_matched() == ("in_port",)
        assert walks == []

    def test_ternary_ip_mask_is_not_walked(self, classifier, walks):
        classifier.insert(make_rule(
            {"ip_dst": 0x0000_0107}, masks={"ip_dst": 0x0000_FFFF}))
        result = classifier.lookup(flow())
        assert result.rule is not None
        assert result.wildcard.mask_of("ip_dst") == 0x0000_FFFF
        assert walks == []

    def test_field_examined_by_several_groups_is_walked_once(
        self, classifier, walks
    ):
        for plen, priority in ((8, 1), (16, 2), (24, 3)):
            classifier.insert(make_rule(
                {"ip_dst": ip("192.168.1.0") & prefix_mask(plen)},
                masks={"ip_dst": prefix_mask(plen)}, priority=priority))
        probe = flow(ip_dst=ip("192.168.9.9"))
        result = classifier.lookup(probe)
        assert result.groups_probed == 2  # /24 misses, /16 hits, /8 skipped
        # .9 and .1 part ways at the 21st bit: enough to rule the /24 out.
        assert result.wildcard.mask_of("ip_dst") == prefix_mask(21)
        assert walks == [probe.get("ip_dst")]
        classifier.climb(probe.packed)
        assert len(walks) == 1  # a climb never walks


class TestAgainstLinearScan:
    def test_equivalence_on_dense_ruleset(self):
        """TSS must agree with a brute-force highest-priority scan."""
        import numpy as np

        rng = np.random.default_rng(3)
        classifier = TupleSpaceClassifier()
        rules = []
        for i in range(120):
            values = {
                "ip_dst": int(rng.integers(0, 4)) << 24,
                "tp_dst": int(rng.integers(0, 4)),
            }
            masks = {
                "ip_dst": prefix_mask(int(rng.choice([8, 16, 24]))),
                "tp_dst": 0xFFFF if rng.random() < 0.5 else 0,
            }
            rule = make_rule(values, masks, priority=int(rng.integers(1, 50)))
            rules.append(rule)
            classifier.insert(rule)

        for _ in range(200):
            probe = flow(
                ip_dst=int(rng.integers(0, 4)) << 24 | int(rng.integers(0, 2)),
                tp_dst=int(rng.integers(0, 4)),
            )
            expected = max(
                (r for r in rules if r.match.matches(probe)),
                key=lambda r: (r.priority, -r.rule_id),
                default=None,
            )
            got, _ = classifier.climb(probe.packed)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got.priority == expected.priority


def same_as_walk(classifier, probe):
    """A climb, checked against the walk: same rule object, same
    ``groups_probed``.  Returns the walk's result."""
    winner, probed = classifier.climb(probe.packed)
    walk = classifier.lookup(probe)
    assert winner is walk.rule
    assert probed == walk.groups_probed
    return walk


class TestLevelIndexCharge:
    """A climb through the level index is charged the groups the walk
    probes — one case per branch of the charge."""

    def test_a_miss_is_charged_every_group(self, classifier):
        for values, priority in (
            ({"tp_dst": 8080}, 5), ({"tp_src": 9}, 3), ({"ip_proto": 17}, 1)
        ):
            classifier.insert(make_rule(values, priority=priority))
        result = same_as_walk(classifier, flow())
        assert classifier._levels is not None
        assert result.rule is None
        assert result.groups_probed == 3

    def test_a_winner_at_its_groups_best_is_charged_its_rank(self, classifier):
        above = make_rule({"tp_dst": 8080}, priority=9)  # misses
        older = make_rule({"tp_src": 1}, priority=5)  # misses
        winner = make_rule({"ip_proto": 6}, priority=5)
        younger = make_rule({"eth_type": 0x0800}, priority=5)  # ties, loses
        below = make_rule({"vlan_id": 5}, priority=2)  # matches, not probed
        for added in (above, older, winner, younger, below):
            classifier.insert(added)
        result = same_as_walk(classifier, flow())
        assert result.rule is winner
        # The level above, then the level's groups by age up to the winner.
        assert result.groups_probed == 1 + 1 + 1

    def test_a_winner_below_its_groups_best_is_charged_the_levels_above(
        self, classifier
    ):
        top = make_rule({"tp_dst": 8080}, priority=9)
        winner = make_rule({"tp_dst": 443}, priority=2)  # top's group
        middle = make_rule({"tp_src": 1}, priority=4)  # misses
        tied = make_rule({"ip_proto": 6}, priority=2)  # ties, never probed
        for added in (top, winner, middle, tied):
            classifier.insert(added)
        result = same_as_walk(classifier, flow())
        assert result.rule is winner
        assert result.groups_probed == 2  # the groups at levels 9 and 4


class TestClimbEqualsWalk:
    """The climb against the walk over seeded random rule sets, and
    across inserts and removes that move a group to another level."""

    def test_a_group_moved_between_levels(self, classifier):
        port = make_rule({"tp_dst": 443}, priority=1)
        proto = make_rule({"ip_proto": 17}, priority=2)
        raised = make_rule({"tp_dst": 80}, priority=3)  # port's group
        for added in (port, proto):
            classifier.insert(added)
        probes = (flow(tp_dst=443), flow(tp_dst=80), flow(ip_proto=17))
        for probe in probes:
            same_as_walk(classifier, probe)
        group = classifier._groups[port.match.wildcard.packed]
        classifier.insert(raised)  # level 1 -> level 3
        assert group.max_priority == 3 and 1 not in classifier._levels
        # Found first, and the proto group, now below it, probed too.
        walk = same_as_walk(classifier, flow(tp_dst=443))
        assert (walk.rule, walk.groups_probed) == (port, 2)
        for probe in probes:
            same_as_walk(classifier, probe)
        classifier.remove(raised)  # back to level 1
        assert group.max_priority == 1 and 3 not in classifier._levels
        for probe in probes:
            same_as_walk(classifier, probe)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_rule_sets(self, seed):
        rng = random.Random(seed)
        classifier = TupleSpaceClassifier()
        resident = []
        moved = 0
        for _ in range(160):
            before = {g.seq: g.max_priority for g in walk_groups(classifier)}
            if resident and rng.random() < 0.35:
                classifier.remove(resident.pop(rng.randrange(len(resident))))
            else:
                template = rng.choice(WALK_TEMPLATES)
                values = {
                    name: rng.choice(WALK_VALUES[name]) for name in template
                }
                added = make_rule(values, dict(template), rng.randint(1, 5))
                classifier.insert(added)
                resident.append(added)
            moved += sum(
                before.get(g.seq, g.max_priority) != g.max_priority
                for g in walk_groups(classifier)
            )
            for probe in WALK_PROBES:
                same_as_walk(classifier, probe)
        assert moved  # the stream moved some group between levels


def walk_groups(classifier):
    return list(classifier._groups.values())


def rescanned_best(group):
    """A group's best priority and how many rules hold it, by rescan."""
    priorities = [rule.priority for rules in group.rules.values()
                  for rule in rules]
    best = max(priorities)
    return best, priorities.count(best)


class TestBestPriorityCount:
    """Each group counts its rules at its best priority, so only the
    last of them to leave rescans.  A seeded insert / remove stream with
    ties at the best priority, and one where every rule has priority 0
    as a Megaflow entry does; after every step the count equals a
    rescan and the climb equals the walk."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("priorities", [(1, 2, 3), (0,)])
    def test_count_equals_a_rescan(self, seed, priorities, monkeypatch):
        rescans = []
        rescan = _Group.recompute_max_priority
        monkeypatch.setattr(
            _Group, "recompute_max_priority",
            lambda group: rescans.append(group.seq) or rescan(group),
        )
        rng = random.Random(seed)
        classifier = TupleSpaceClassifier()
        resident = []
        for _ in range(200):
            if resident and rng.random() < 0.45:
                classifier.remove(resident.pop(rng.randrange(len(resident))))
            else:
                template = rng.choice(INDEX_TEMPLATES)
                values = {
                    name: rng.choice(INDEX_VALUES[name]) for name in template
                }
                added = make_rule(
                    values, dict(template), rng.choice(priorities)
                )
                classifier.insert(added)
                resident.append(added)
            for group in walk_groups(classifier):
                assert (group.max_priority, group.best_count) == (
                    rescanned_best(group)
                )
            for probe in WALK_PROBES:
                same_as_walk(classifier, probe)
        if len(priorities) == 1:
            assert not rescans  # a group's last rule leaves it: no rescan
        else:
            assert rescans


class TestIndexLifetime:
    def test_only_a_plain_lookup_builds_the_index(self, classifier):
        """Walks (the pipeline tables' searches) never build the level
        index; the first climb does, updates keep it, and ``clear``
        drops it."""
        rules = [
            make_rule({"ip_dst": 0}, {"ip_dst": prefix_mask(32 - i)}, i % 3)
            for i in range(6)
        ]
        probe = flow(ip_dst=0)
        for added in rules[:3]:
            classifier.insert(added)
        classifier.lookup(probe)
        assert classifier._levels is None
        same_as_walk(classifier, probe)
        assert classifier._levels is not None
        for added in rules[3:]:
            classifier.insert(added)
            same_as_walk(classifier, probe)
        for removed in rules:
            classifier.remove(removed)
            same_as_walk(classifier, probe)
        classifier.clear()
        assert classifier._levels is None

    def test_only_an_unwildcarding_lookup_builds_the_walk_state(
        self, classifier
    ):
        """Climbs (the caches' searches) never build the walk state; the
        first walk does, updates keep it, and ``clear`` drops it."""
        rules = [
            make_rule({"ip_dst": 0}, {"ip_dst": prefix_mask(32 - i)}, i % 3)
            for i in range(6)
        ]
        probe = flow(ip_dst=0)
        for added in rules[:3]:
            classifier.insert(added)
        classifier.climb(probe.packed)
        assert classifier._tries is None
        assert all(group.stages is None for group in walk_groups(classifier))
        same_as_walk(classifier, probe)
        tries = classifier._tries
        assert tries is not None
        for added in rules[3:]:
            classifier.insert(added)
            same_as_walk(classifier, probe)
        for removed in rules:
            classifier.remove(removed)
            same_as_walk(classifier, probe)
        assert classifier._tries is tries
        classifier.clear()
        assert classifier._tries is None


def test_cache_classifiers_keep_no_walk_state_and_tables_no_index():
    """After a Gigaflow run and a Megaflow run, every LTM tag bucket and
    the Megaflow classifier hold a level index and no walk state; every
    pipeline table's classifier holds walk state and no level index."""
    from repro.sim import GigaflowSystem, MegaflowSystem, VSwitchSimulator
    from conftest import seeded_trace, seeded_workload

    workload = seeded_workload(n_flows=120)
    trace = seeded_trace(workload, duration=3.0)
    gigaflow = GigaflowSystem(num_tables=4, table_capacity=40)
    megaflow = MegaflowSystem(capacity=40)
    for system in (gigaflow, megaflow):
        result = VSwitchSimulator(workload.pipeline, system).run(trace)
        # Hits, misses and evictions: every update path ran.
        assert 0 < result.hit_rate < 1 and result.stats.evictions
    buckets = [
        bucket
        for table in gigaflow.cache.tables
        for bucket in table.buckets.values()
    ]
    assert buckets
    for cache_classifier in [*buckets, megaflow.cache._classifier]:
        assert cache_classifier._tries is None
        assert cache_classifier._levels is not None
        assert all(
            group.stages is None for group in walk_groups(cache_classifier)
        )
    for table in workload.pipeline.tables.values():
        assert table._classifier._levels is None
        if len(table._classifier):
            assert table._classifier._tries is not None


#: Mask templates for the differential: four that share ``tp_dst`` (so a
#: level's ``common`` keeps it) and a broad outlier without it, which
#: shrinks ``common`` while resident.
INDEX_TEMPLATES = (
    {"tp_dst": None, "ip_proto": None},
    {"tp_dst": None, "tp_src": None},
    {"tp_dst": None, "ip_dst": prefix_mask(24)},
    {"tp_dst": 0xFF00, "ip_dst": prefix_mask(16)},
    {"ip_proto": None},
)

INDEX_VALUES = {
    "tp_dst": (80, 443, 0x1BB),
    "tp_src": (1, 2),
    "ip_proto": (6, 17),
    "ip_dst": (ip("10.0.0.1"), ip("10.0.1.1"), ip("10.1.0.1")),
}


class LevelIndexAgainstWalk(RuleBasedStateMachine):
    """Climbs through the level index against the walk, over insert /
    remove / ``clear`` / lookup.  Priorities come from three
    values, so ties happen inside a group and across groups."""

    def __init__(self):
        super().__init__()
        self.classifier = TupleSpaceClassifier()
        self.resident = []

    def draw_values(self, data, names):
        return {
            name: data.draw(st.sampled_from(INDEX_VALUES[name]), label=name)
            for name in names
        }

    @rule(
        data=st.data(),
        template=st.sampled_from(INDEX_TEMPLATES),
        priority=st.sampled_from((1, 2, 3)),
    )
    def insert(self, data, template, priority):
        added = make_rule(
            self.draw_values(data, template), dict(template), priority
        )
        self.classifier.insert(added)
        self.resident.append(added)

    @precondition(lambda self: self.resident)
    @rule(data=st.data())
    def remove(self, data):
        position = data.draw(st.integers(0, len(self.resident) - 1))
        self.classifier.remove(self.resident.pop(position))

    @rule()
    def clear(self):
        self.classifier.clear()
        self.resident.clear()

    @rule(data=st.data())
    def lookup(self, data):
        same_as_walk(self.classifier, flow(**self.draw_values(data, INDEX_VALUES)))

    @invariant()
    def index_mirrors_the_groups(self):
        groups = list(self.classifier._groups.values())
        levels = self.classifier._levels
        if levels is None:  # no climb since the last clear
            return
        filed = []
        for priority, level in levels.items():
            common = -1
            for seq, group in level.groups.items():
                assert group.seq == seq and group.max_priority == priority
                common &= group.mask
            assert level.groups
            assert level.common == common
            assert level.ages == sorted(level.groups)
            for key, cells in level.cells.items():
                # One cell per group with a bucket under the key, by age.
                ages = [cell[2].seq for cell in cells]
                assert ages == sorted(set(ages))
                for mask, rules, group, count in cells:
                    assert mask == group.mask and rules is group.rules
                    filed.append((group.seq, key, count))
        # Every resident bucket is counted once, under ``value & common``.
        expected = Counter(
            (group.seq, canonical & levels[group.max_priority].common)
            for group in groups
            for canonical in group.rules
        )
        assert sorted(filed) == sorted(
            (seq, key, count) for (seq, key), count in expected.items()
        )
        assert sorted(
            seq for level in levels.values() for seq in level.ages
        ) == sorted(group.seq for group in groups)


LevelIndexAgainstWalk.TestCase.settings = DIFFERENTIAL
TestLevelIndexAgainstWalk = LevelIndexAgainstWalk.TestCase


#: The walk differential's masks: the level index's, plus masks that
#: stage through the port and L2 layers, a prefix on the other trie
#: field and a ternary (non-prefix) address mask.
WALK_TEMPLATES = INDEX_TEMPLATES + (
    {"in_port": None, "ip_dst": prefix_mask(24)},
    {"eth_type": None, "ip_src": prefix_mask(8), "tp_dst": None},
    {"ip_dst": prefix_mask(16)},
    {"ip_dst": 0x00FF_00FF},
)

WALK_VALUES = {
    **INDEX_VALUES,
    "in_port": (1, 2),
    "eth_type": (0x0800, 0x86DD),
    "ip_src": (ip("10.0.0.1"), ip("11.0.0.1")),
}

#: Fixed probes every agreement check looks up.
WALK_PROBES = tuple(
    flow(**{name: values[seed * (i + 1) % len(values)]
            for i, (name, values) in enumerate(WALK_VALUES.items())})
    for seed in range(12)
)


def walk_state(classifier):
    """The walk state as plain values: each group's stage key counts
    and trie prefixes, and every trie's prefix counts."""
    groups = {
        group.mask: (
            group.prefixes,
            [(stage[0], dict(stage[1]), stage[2], stage[3])
             for stage in group.stages],
        )
        for group in walk_groups(classifier)
    }
    tries = {
        index: dict(trie._rules) for index, trie in classifier._tries.items()
    }
    return groups, tries


def same_walk(one, other, probe):
    a = one.lookup(probe)
    b = other.lookup(probe)
    assert a.rule is b.rule
    assert a.wildcard == b.wildcard
    assert a.groups_probed == b.groups_probed


class WalkStateAgainstEager(RuleBasedStateMachine):
    """A classifier that builds its walk state on its first walk against
    one that walks from the start and again after every ``clear``, over
    the same insert / remove / ``clear`` stream."""

    def __init__(self):
        super().__init__()
        self.lazy = TupleSpaceClassifier()
        self.eager = TupleSpaceClassifier()
        self.eager.lookup(flow())
        self.resident = []

    @rule(
        data=st.data(),
        template=st.sampled_from(WALK_TEMPLATES),
        priority=st.sampled_from((1, 2, 3)),
    )
    def insert(self, data, template, priority):
        values = {
            name: data.draw(st.sampled_from(WALK_VALUES[name]), label=name)
            for name in template
        }
        added = make_rule(values, dict(template), priority)
        self.lazy.insert(added)
        self.eager.insert(added)
        self.resident.append(added)

    @precondition(lambda self: self.resident)
    @rule(data=st.data())
    def remove(self, data):
        position = data.draw(st.integers(0, len(self.resident) - 1))
        removed = self.resident.pop(position)
        self.lazy.remove(removed)
        self.eager.remove(removed)

    @rule()
    def clear(self):
        self.lazy.clear()
        self.eager.clear()
        self.eager.lookup(flow())
        self.resident.clear()

    @rule(probe=st.sampled_from(WALK_PROBES))
    def walk(self, probe):
        same_walk(self.lazy, self.eager, probe)

    @invariant()
    def walks_agree(self):
        if self.lazy._tries is None:
            assert all(g.stages is None for g in walk_groups(self.lazy))
            return
        for probe in WALK_PROBES:
            same_walk(self.lazy, self.eager, probe)

    @invariant()
    def walk_state_is_a_rebuild(self):
        rebuilt = TupleSpaceClassifier()
        for resident in self.resident:
            rebuilt.insert(resident)
        rebuilt.lookup(flow())
        expected = walk_state(rebuilt)
        assert walk_state(self.eager) == expected
        if self.lazy._tries is not None:
            assert walk_state(self.lazy) == expected


WalkStateAgainstEager.TestCase.settings = DIFFERENTIAL
TestWalkStateAgainstEager = WalkStateAgainstEager.TestCase
