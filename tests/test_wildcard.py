"""Unit tests for Wildcard algebra."""

import pytest

from repro.flow import DEFAULT_SCHEMA, Wildcard, prefix_mask


class TestConstruction:
    def test_empty_matches_nothing(self):
        wc = Wildcard.from_packed(0)
        assert wc.masks == DEFAULT_SCHEMA.zero_tuple
        assert wc.fields_matched() == ()

    def test_full_matches_all_fields(self):
        wc = Wildcard.from_packed(DEFAULT_SCHEMA.full_packed)
        assert set(wc.fields_matched()) == set(DEFAULT_SCHEMA.names)
        assert wc.masks == DEFAULT_SCHEMA.full_masks

    def test_from_fields_partial_mask(self):
        wc = Wildcard.from_fields({"ip_dst": prefix_mask(24)})
        assert wc.mask_of("ip_dst") == 0xFFFFFF00
        assert wc.mask_of("ip_src") == 0

    def test_from_fields_none_means_exact(self):
        wc = Wildcard.from_fields({"eth_dst": None})
        assert wc.mask_of("eth_dst") == (1 << 48) - 1

    def test_exact_fields(self):
        wc = Wildcard.exact_fields(["in_port", "vlan_id"])
        assert wc.mask_of("in_port") == 0xFFFF
        assert wc.mask_of("vlan_id") == 0xFFF
        assert wc.mask_of("ip_dst") == 0

    def test_mask_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            Wildcard.from_fields({"ip_proto": 0x1FF})

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Wildcard([0, 0])


class TestAlgebra:
    def test_union(self):
        a = Wildcard.exact_fields(["eth_src"])
        b = Wildcard.exact_fields(["ip_dst"])
        u = a.union(b)
        assert set(u.fields_matched()) == {"eth_src", "ip_dst"}

    def test_union_merges_bits_within_field(self):
        a = Wildcard.from_fields({"ip_dst": prefix_mask(8)})
        b = Wildcard.from_fields({"ip_dst": prefix_mask(24)})
        assert a.union(b).mask_of("ip_dst") == prefix_mask(24)

    def test_intersection(self):
        a = Wildcard.exact_fields(["eth_src", "ip_dst"])
        b = Wildcard.exact_fields(["ip_dst", "tp_dst"])
        assert a.intersection(b).fields_matched() == ("ip_dst",)


class TestPredicates:
    def test_disjoint_field_granularity(self):
        l2 = Wildcard.exact_fields(["eth_src", "eth_dst"])
        l4 = Wildcard.exact_fields(["tp_src", "tp_dst"])
        assert l2.is_disjoint(l4)
        assert l4.is_disjoint(l2)

    def test_not_disjoint_when_sharing_a_field(self):
        a = Wildcard.exact_fields(["eth_src", "ip_dst"])
        b = Wildcard.exact_fields(["ip_dst"])
        assert not a.is_disjoint(b)

    def test_empty_disjoint_with_everything(self):
        empty = Wildcard.from_packed(0)
        assert empty.is_disjoint(Wildcard.from_packed(
            DEFAULT_SCHEMA.full_packed
        ))

    def test_covers(self):
        broad = Wildcard.from_packed(DEFAULT_SCHEMA.full_packed)
        narrow = Wildcard.exact_fields(["ip_dst"])
        assert broad.covers(narrow)
        assert not narrow.covers(broad)
        assert narrow.covers(narrow)

    def test_bit_count(self):
        assert Wildcard.from_packed(0).bit_count() == 0
        wc = Wildcard.from_fields({"ip_dst": prefix_mask(24)})
        assert wc.bit_count() == 24

    def test_field_set(self):
        wc = Wildcard.exact_fields(["ip_src", "tp_dst"])
        assert wc.field_set() == frozenset({"ip_src", "tp_dst"})

    def test_equality_and_hash(self):
        a = Wildcard.exact_fields(["ip_dst"])
        b = Wildcard.exact_fields(["ip_dst"])
        assert a == b
        assert hash(a) == hash(b)
