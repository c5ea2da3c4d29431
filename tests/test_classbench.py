"""Tests for the ClassBench-style rule generator and Fig. 4 analysis."""

import numpy as np
import pytest

from repro.workload.classbench import (
    generate_ruleset,
    make_prefix_pool,
    reoccurrence_curve,
    tuple_reoccurrence,
)
from repro.flow import prefix_mask


class TestPrefixPool:
    def test_pool_size(self):
        rng = np.random.default_rng(0)
        pool = make_prefix_pool(rng, 50, base_octet=10)
        assert len(pool) == 50

    def test_prefixes_are_canonical(self):
        rng = np.random.default_rng(0)
        pool = make_prefix_pool(rng, 100, base_octet=10)
        for value, plen in pool.prefixes:
            assert value & ~prefix_mask(plen) == 0
            assert (value >> 24) == 10

    def test_nested_prefixes_exist(self):
        rng = np.random.default_rng(0)
        pool = make_prefix_pool(rng, 100, base_octet=10,
                                nested_fraction=0.4)
        lens = [plen for _, plen in pool.prefixes]
        assert any(p >= 28 for p in lens)
        assert any(p <= 24 for p in lens)

    def test_sample_returns_value_mask(self):
        rng = np.random.default_rng(0)
        pool = make_prefix_pool(rng, 10, base_octet=10)
        value, mask = pool.sample(rng, zipf_a=None)
        assert value & ~mask == 0

    def test_empty_pool_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_prefix_pool(rng, 0, base_octet=10)


class TestGenerator:
    def test_generates_requested_count(self):
        rules = generate_ruleset(500, seed=1)
        assert len(rules) == 500

    def test_rules_unique(self):
        rules = generate_ruleset(1000, seed=2)
        keys = {
            (r.ip_src, r.ip_dst, r.ip_proto, r.tp_src, r.tp_dst)
            for r in rules
        }
        assert len(keys) == len(rules)

    def test_deterministic_by_seed(self):
        assert generate_ruleset(200, seed=3) == generate_ruleset(200, seed=3)
        assert generate_ruleset(200, seed=3) != generate_ruleset(200, seed=4)

    def test_source_ports_mostly_wildcarded(self):
        rules = generate_ruleset(1000, seed=0)
        wildcarded = sum(1 for r in rules if r.tp_src[1] == 0)
        assert wildcarded / len(rules) > 0.6

    def test_icmp_rules_have_no_ports(self):
        rules = generate_ruleset(2000, seed=0)
        icmp = [r for r in rules if r.ip_proto[0] == 1]
        assert icmp, "expected some ICMP rules"
        assert all(r.tp_dst[1] == 0 for r in icmp)

    def test_matched_field_count(self):
        rules = generate_ruleset(100, seed=0)
        for r in rules:
            assert 1 <= r.matched_field_count() <= 5


class TestFig4Analysis:
    @pytest.fixture(scope="class")
    def rules(self):
        return generate_ruleset(4000, seed=0)

    def test_curve_monotone_decreasing_in_fields(self, rules):
        """Fig. 4: frequency rises as matched fields drop 5 -> 1."""
        curve = reoccurrence_curve(rules)
        assert curve[1] > curve[2] > curve[3] >= curve[4] >= curve[5]

    def test_five_tuple_nearly_unique(self, rules):
        assert tuple_reoccurrence(rules, 5) < 1.1

    def test_partial_tuples_heavily_shared(self, rules):
        assert tuple_reoccurrence(rules, 1) > 50
        assert tuple_reoccurrence(rules, 2) > 2

    def test_bad_field_count_rejected(self, rules):
        with pytest.raises(ValueError):
            tuple_reoccurrence(rules, 0)
        with pytest.raises(ValueError):
            tuple_reoccurrence(rules, 6)

    def test_empty_ruleset_rejected(self):
        with pytest.raises(ValueError):
            tuple_reoccurrence([], 1)

    def test_projection(self, rules):
        rule = rules[0]
        proj = rule.projection(("ip_src", "tp_dst"))
        assert proj == (rule.ip_src, rule.tp_dst)
