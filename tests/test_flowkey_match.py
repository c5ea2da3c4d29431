"""Unit tests for FlowKey and TernaryMatch."""

import pytest

from repro.flow import (
    DEFAULT_SCHEMA,
    FlowKey,
    TernaryMatch,
    Wildcard,
    ip,
    prefix_mask,
)
from conftest import flow, rewrite


class TestFlowKey:
    def test_from_fields_defaults_zero(self):
        key = FlowKey.from_fields({"in_port": 3})
        assert key.get("in_port") == 3
        assert key.get("ip_dst") == 0

    def test_set_field_returns_new_key(self):
        key = flow()
        other = rewrite(key, tp_dst=80)
        assert other.get("tp_dst") == 80
        assert key.get("tp_dst") == 443

    def test_set_field_validates_width(self):
        with pytest.raises(ValueError):
            rewrite(flow(), ip_proto=300)

    def test_value_overflow_rejected(self):
        with pytest.raises(ValueError):
            FlowKey.from_fields({"vlan_id": 1 << 12})

    def test_masked_projection(self):
        key = flow(ip_dst=ip("192.168.1.77"))
        wc = Wildcard.from_fields({"ip_dst": prefix_mask(24)})
        projected = key.masked(wc)
        index = DEFAULT_SCHEMA.index_of("ip_dst")
        assert projected[index] == ip("192.168.1.0")

    def test_matches_with_wildcard(self):
        a = flow(ip_dst=ip("192.168.1.1"))
        b = flow(ip_dst=ip("192.168.1.200"))
        wc24 = Wildcard.from_fields({"ip_dst": prefix_mask(24)})
        wc32 = Wildcard.from_fields({"ip_dst": prefix_mask(32)})
        assert a.matches(b, wc24)
        assert not a.matches(b, wc32)

    def test_hash_equality(self):
        assert flow() == flow()
        assert hash(flow()) == hash(flow())


class TestTernaryMatch:
    def test_exact_match(self):
        match = TernaryMatch.from_fields({"tp_dst": 443})
        assert match.matches(flow(tp_dst=443))
        assert not match.matches(flow(tp_dst=80))

    def test_prefix_match(self):
        match = TernaryMatch.from_fields(
            {"ip_dst": ip("10.1.0.0")},
            masks={"ip_dst": prefix_mask(16)},
        )
        assert match.matches(flow(ip_dst=ip("10.1.200.3")))
        assert not match.matches(flow(ip_dst=ip("10.2.0.1")))

    def test_catch_all(self):
        # A match on no field accepts every packet.
        assert TernaryMatch.from_fields({}).matches(flow())

    def test_canonicalisation(self):
        # Bits outside the mask are irrelevant to equality.
        a = TernaryMatch.from_fields(
            {"ip_dst": ip("10.1.2.3")}, masks={"ip_dst": prefix_mask(16)}
        )
        b = TernaryMatch.from_fields(
            {"ip_dst": ip("10.1.99.99")}, masks={"ip_dst": prefix_mask(16)}
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_specificity(self):
        narrow = TernaryMatch.from_fields({"eth_dst": 5})
        broad = TernaryMatch.from_fields(
            {"ip_dst": 0}, masks={"ip_dst": prefix_mask(8)}
        )
        assert narrow.specificity() == 48
        assert broad.specificity() == 8

    def test_overlaps(self):
        a = TernaryMatch.from_fields(
            {"ip_dst": ip("10.0.0.0")}, masks={"ip_dst": prefix_mask(8)}
        )
        b = TernaryMatch.from_fields(
            {"ip_dst": ip("10.5.0.0")}, masks={"ip_dst": prefix_mask(16)}
        )
        c = TernaryMatch.from_fields(
            {"ip_dst": ip("11.0.0.0")}, masks={"ip_dst": prefix_mask(8)}
        )
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)

    def test_overlaps_on_different_fields(self):
        a = TernaryMatch.from_fields({"tp_dst": 443})
        b = TernaryMatch.from_fields({"eth_src": 7})
        assert a.overlaps(b)  # some packet satisfies both

    def test_subsumes(self):
        broad = TernaryMatch.from_fields(
            {"ip_dst": ip("10.0.0.0")}, masks={"ip_dst": prefix_mask(8)}
        )
        narrow = TernaryMatch.from_fields(
            {"ip_dst": ip("10.1.0.0")}, masks={"ip_dst": prefix_mask(16)}
        )
        assert broad.subsumes(narrow)
        assert not narrow.subsumes(broad)
        assert broad.subsumes(broad)

    def test_subsumes_requires_value_agreement(self):
        a = TernaryMatch.from_fields(
            {"ip_dst": ip("10.0.0.0")}, masks={"ip_dst": prefix_mask(8)}
        )
        b = TernaryMatch.from_fields(
            {"ip_dst": ip("11.1.0.0")}, masks={"ip_dst": prefix_mask(16)}
        )
        assert not a.subsumes(b)
