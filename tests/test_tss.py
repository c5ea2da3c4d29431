"""Unit tests for the Tuple Space Search classifier."""

import pytest

from repro.classify import PrefixTrie, TupleSpaceClassifier
from repro.flow import (
    ActionList,
    DEFAULT_SCHEMA,
    Output,
    TernaryMatch,
    ip,
    prefix_mask,
)
from repro.pipeline import PipelineRule
from conftest import flow


def make_rule(values, masks=None, priority=10):
    return PipelineRule(
        match=TernaryMatch.from_fields(values, masks),
        priority=priority,
        actions=ActionList([Output(1)]),
    )


@pytest.fixture
def classifier():
    return TupleSpaceClassifier(DEFAULT_SCHEMA)


class TestBasicLookup:
    def test_empty_classifier_misses(self, classifier):
        result = classifier.lookup(flow())
        assert result.rule is None
        assert result.groups_probed == 0

    def test_exact_hit(self, classifier):
        rule = make_rule({"tp_dst": 443})
        classifier.insert(rule)
        assert classifier.lookup(flow(tp_dst=443)).rule is rule
        assert classifier.lookup(flow(tp_dst=80)).rule is None

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
        assert classifier.lookup(flow(ip_dst=ip("192.168.1.5"))).rule is narrow
        assert classifier.lookup(flow(ip_dst=ip("192.168.9.5"))).rule is broad

    def test_same_mask_group_shares_hash(self, classifier):
        a = make_rule({"tp_dst": 443})
        b = make_rule({"tp_dst": 80})
        classifier.insert(a)
        classifier.insert(b)
        assert classifier.group_count == 1
        assert classifier.lookup(flow(tp_dst=80)).rule is b

    def test_early_termination_by_priority(self, classifier):
        # Matching the highest-priority group first means lower groups
        # are not probed.
        high = make_rule({"tp_dst": 443}, priority=100)
        low = make_rule({"ip_proto": 6}, priority=1)
        classifier.insert(high)
        classifier.insert(low)
        result = classifier.lookup(flow(tp_dst=443))
        assert result.rule is high
        assert result.groups_probed == 1

    def test_remove(self, classifier):
        rule = make_rule({"tp_dst": 443})
        classifier.insert(rule)
        classifier.remove(rule)
        assert classifier.lookup(flow(tp_dst=443)).rule is None
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
        assert classifier.lookup(flow(tp_dst=1)).rule is None


class TestUnwildcarding:
    def test_hit_includes_matched_rule_mask(self, classifier):
        classifier.insert(make_rule({"tp_dst": 443}))
        result = classifier.lookup(flow(tp_dst=443), unwildcard=True)
        assert result.wildcard.mask_of("tp_dst") == 0xFFFF

    def test_staged_miss_unwildcards_only_early_stages(self, classifier):
        # Group matches in_port (port stage) + tp_dst (L4 stage).  A flow
        # that fails already at the port stage must not un-wildcard L4.
        classifier.insert(make_rule({"in_port": 5, "tp_dst": 443}))
        result = classifier.lookup(flow(in_port=9), unwildcard=True)
        assert result.wildcard.mask_of("in_port") == 0xFFFF
        assert result.wildcard.mask_of("tp_dst") == 0

    def test_staged_miss_at_l4_unwildcards_through_l4(self, classifier):
        classifier.insert(make_rule({"in_port": 1, "tp_dst": 9999}))
        result = classifier.lookup(
            flow(in_port=1, tp_dst=443), unwildcard=True
        )
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
        result = classifier.lookup(
            flow(ip_dst=ip("192.168.21.27")), unwildcard=True
        )
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
        result = classifier.lookup(probe, unwildcard=True)
        # Perturb bits outside the wildcard; the winner may not change.
        mask = result.wildcard.mask_of("ip_dst")
        perturbed = flow(ip_dst=(probe.get("ip_dst") ^ (~mask & 0xFF)))
        assert classifier.lookup(perturbed).rule is result.rule


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
        result = classifier.lookup(flow(tp_dst=443), unwildcard=True)
        assert result.groups_probed == 1
        assert result.wildcard.fields_matched() == ("tp_dst",)
        assert walks == []

    def test_miss_before_the_l3_stage_is_not_walked(self, classifier, walks):
        classifier.insert(make_rule(
            {"in_port": 5, "ip_dst": ip("192.168.1.0")},
            masks={"in_port": None, "ip_dst": prefix_mask(24)}))
        result = classifier.lookup(flow(in_port=9), unwildcard=True)
        assert result.wildcard.fields_matched() == ("in_port",)
        assert walks == []

    def test_ternary_ip_mask_is_not_walked(self, classifier, walks):
        classifier.insert(make_rule(
            {"ip_dst": 0x0000_0107}, masks={"ip_dst": 0x0000_FFFF}))
        result = classifier.lookup(flow(), unwildcard=True)
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
        result = classifier.lookup(probe, unwildcard=True)
        assert result.groups_probed == 2  # /24 misses, /16 hits, /8 skipped
        # .9 and .1 part ways at the 21st bit: enough to rule the /24 out.
        assert result.wildcard.mask_of("ip_dst") == prefix_mask(21)
        assert walks == [probe.get("ip_dst")]
        assert classifier.lookup(probe).wildcard is None
        assert len(walks) == 1  # a plain lookup never walks


class TestAgainstLinearScan:
    def test_equivalence_on_dense_ruleset(self):
        """TSS must agree with a brute-force highest-priority scan."""
        import numpy as np

        rng = np.random.default_rng(3)
        classifier = TupleSpaceClassifier(DEFAULT_SCHEMA)
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
            got = classifier.lookup(probe).rule
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got.priority == expected.priority


class TestProbeOrderReport:
    """``insert`` / ``remove`` return which lookups now probe a
    different sequence of groups: those whose winner's priority is at
    most the returned level (``None``: none)."""

    def test_a_new_group_sorts_last_within_its_level(self, classifier):
        assert classifier.insert(make_rule({"tp_dst": 443}, priority=5)) == 4
        assert classifier.insert(make_rule({"tp_src": 9}, priority=5)) == 4
        assert classifier.insert(make_rule({"ip_proto": 6}, priority=0)) == -1

    def test_joining_a_group_reports_only_a_raised_best(self, classifier):
        classifier.insert(make_rule({"tp_dst": 443}, priority=5))
        assert classifier.insert(make_rule({"tp_dst": 80}, priority=5)) is None
        assert classifier.insert(make_rule({"tp_dst": 22}, priority=3)) is None
        assert classifier.insert(make_rule({"tp_dst": 25}, priority=8)) == 8

    def test_remove_reports_a_deleted_group_or_a_lowered_best(
        self, classifier
    ):
        best = make_rule({"tp_dst": 443}, priority=8)
        twin = make_rule({"tp_dst": 80}, priority=8)
        low = make_rule({"tp_dst": 22}, priority=3)
        for rule in (best, twin, low):
            classifier.insert(rule)
        assert classifier.remove(twin) is None  # best still 8
        assert classifier.remove(best) == 8  # best 8 -> 3
        assert classifier.remove(low) == 3  # group deleted

    def test_unreported_lookups_probe_exactly_as_before(self):
        """Random updates against fixed probes: a lookup whose winner
        ranks above the reported level, lost no rule and gained no
        match must return the same rule for the same ``groups_probed``."""
        import numpy as np

        rng = np.random.default_rng(11)
        classifier = TupleSpaceClassifier(DEFAULT_SCHEMA)
        mask_sets = (
            {"tp_dst": 0xFFFF},
            {"tp_src": 0xFFFF},
            {"tp_dst": 0xFFFF, "ip_proto": 0xFF},
            {"ip_dst": prefix_mask(24)},
        )
        probes = [
            flow(tp_dst=dst, tp_src=src, ip_proto=proto)
            for dst in range(3) for src in range(3) for proto in (6, 17)
        ]
        resident = []
        unchanged = 0
        for _ in range(400):
            before = [classifier.lookup(probe) for probe in probes]
            if resident and rng.random() < 0.45:
                rule = resident.pop(int(rng.integers(len(resident))))
                level = classifier.remove(rule)
            else:
                masks = mask_sets[int(rng.integers(len(mask_sets)))]
                values = {
                    name: int(rng.integers(0, 3))
                    if name != "ip_proto"
                    else int(rng.choice([6, 17]))
                    for name in masks
                }
                rule = make_rule(
                    values, masks, priority=int(rng.integers(0, 4))
                )
                resident.append(rule)
                level = classifier.insert(rule)
            for probe, was in zip(probes, before):
                if was.rule is rule or rule.match.matches(probe):
                    continue
                if level is not None and (
                    was.rule is None or was.rule.priority <= level
                ):
                    continue
                now = classifier.lookup(probe)
                assert now.rule is was.rule
                assert now.groups_probed == was.groups_probed
                unchanged += 1
        assert unchanged > 1000
