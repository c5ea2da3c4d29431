"""Unit tests for the NuevoMatch-style learned classifier."""

import numpy as np
import pytest

from repro.classify import TupleSpaceClassifier
from repro.experiments.nuevomatch import NuevoMatchClassifier
from repro.flow import ActionList, Output, TernaryMatch, prefix_mask
from repro.pipeline import PipelineRule
from conftest import flow


def make_rule(values, masks=None, priority=10):
    return PipelineRule(
        match=TernaryMatch.from_fields(values, masks),
        priority=priority,
        actions=ActionList([Output(1)]),
    )


def random_prefix_rules(n, seed=0):
    rng = np.random.default_rng(seed)
    rules = []
    for _ in range(n):
        plen = int(rng.choice([8, 16, 24, 32]))
        value = int(rng.integers(0, 1 << 32)) & prefix_mask(plen)
        rules.append(
            make_rule(
                {"ip_dst": value},
                masks={"ip_dst": prefix_mask(plen)},
                priority=int(rng.integers(1, 100)),
            )
        )
    return rules


class TestFit:
    def test_builds_isets_for_prefix_rules(self):
        classifier = NuevoMatchClassifier()
        classifier.fit(random_prefix_rules(200))
        assert classifier.iset_count >= 1
        assert len(classifier) == 200

    def test_non_range_rules_go_to_remainder(self):
        classifier = NuevoMatchClassifier()
        # eth_dst is not an iSet candidate field, so MAC-only rules have
        # no usable range on any indexed dimension -> remainder.
        rules = [make_rule({"eth_dst": m}) for m in range(20)]
        classifier.fit(rules)
        assert classifier.iset_count == 0
        assert classifier.lookup(flow(eth_dst=7))[0] is rules[7]

    def test_port_rules_get_their_own_iset(self):
        # tp_dst is a candidate dimension: distinct exact ports form
        # disjoint ranges -> one learned iSet, no remainder.
        classifier = NuevoMatchClassifier()
        rules = [make_rule({"tp_dst": p}) for p in range(20)]
        classifier.fit(rules)
        assert classifier.iset_count == 1
        assert classifier.lookup(flow(tp_dst=7))[0] is rules[7]

    def test_insert_after_fit_lands_in_remainder(self):
        classifier = NuevoMatchClassifier()
        classifier.fit(random_prefix_rules(50))
        late = make_rule({"tp_dst": 443}, priority=1000)
        classifier.insert(late)
        assert classifier.lookup(flow(tp_dst=443))[0] is late

    def test_small_sets_skip_isets(self):
        classifier = NuevoMatchClassifier(min_iset_size=64)
        classifier.fit(random_prefix_rules(10))
        assert classifier.iset_count == 0


class TestEquivalenceWithTss:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_tss_on_priority(self, seed):
        rules = random_prefix_rules(300, seed=seed)
        nm = NuevoMatchClassifier()
        nm.fit(rules)
        tss = TupleSpaceClassifier()
        for rule in rules:
            tss.insert(rule)
        rng = np.random.default_rng(seed + 100)
        for _ in range(300):
            probe = flow(ip_dst=int(rng.integers(0, 1 << 32)))
            a, _ = nm.lookup(probe)
            b, _ = tss.climb(probe.packed)
            if b is None:
                assert a is None
            else:
                assert a is not None
                assert a.priority == b.priority


class TestModel:
    def test_error_bound_is_respected(self):
        from repro.experiments.nuevomatch import _PiecewiseLinearModel

        keys = np.sort(np.random.default_rng(0).integers(
            0, 1 << 32, size=500).astype(np.float64))
        model = _PiecewiseLinearModel(keys)
        for i in range(0, 500, 7):
            predicted = model.predict(int(keys[i]))
            assert abs(predicted - i) <= model.error_bound + 1

    def test_single_key_model(self):
        from repro.experiments.nuevomatch import _PiecewiseLinearModel

        model = _PiecewiseLinearModel(np.array([42.0]))
        assert model.predict(42) == 0
        assert model.error_bound == 0
