"""Unit tests for the field schema."""

import ipaddress

import pytest

from repro.flow.fields import (
    DEFAULT_SCHEMA,
    Field,
    FieldSchema,
    ip,
    prefix_mask,
)


class TestField:
    def test_full_mask(self):
        assert Field("x", 8, "l3").full_mask == 0xFF
        assert Field("x", 48, "l2").full_mask == (1 << 48) - 1

    def test_validate_accepts_in_range(self):
        field = Field("x", 8, "l3")
        assert field.validate_value(0) == 0
        assert field.validate_value(255) == 255

    def test_validate_rejects_out_of_range(self):
        field = Field("x", 8, "l3")
        with pytest.raises(ValueError):
            field.validate_value(256)
        with pytest.raises(ValueError):
            field.validate_value(-1)


class TestFieldSchema:
    def test_default_schema_has_ten_fields(self):
        # Fig. 6: ten ternary header fields.
        assert len(DEFAULT_SCHEMA) == 10

    def test_default_schema_field_names(self):
        assert DEFAULT_SCHEMA.names == (
            "in_port", "eth_src", "eth_dst", "eth_type", "vlan_id",
            "ip_src", "ip_dst", "ip_proto", "tp_src", "tp_dst",
        )

    def test_index_of_round_trips(self):
        for i, field in enumerate(DEFAULT_SCHEMA):
            assert DEFAULT_SCHEMA.index_of(field.name) == i

    def test_index_of_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown field"):
            DEFAULT_SCHEMA.index_of("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FieldSchema([Field("a", 8, "l3"), Field("a", 8, "l3")])

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            FieldSchema([])

    def test_structural_equality(self):
        a = FieldSchema([Field("a", 8, "l3"), Field("b", 16, "l4")])
        b = FieldSchema([Field("a", 8, "l3"), Field("b", 16, "l4")])
        assert a == b
        assert hash(a) == hash(b)

    def test_layers(self):
        assert DEFAULT_SCHEMA.field("eth_src").layer == "l2"
        assert DEFAULT_SCHEMA.field("ip_dst").layer == "l3"
        assert DEFAULT_SCHEMA.field("tp_dst").layer == "l4"
        assert DEFAULT_SCHEMA.field("in_port").layer == "port"

    def test_indices_of(self):
        assert tuple(
            map(DEFAULT_SCHEMA.index_of, ["in_port", "ip_dst"])
        ) == (0, 6)

    def test_contains(self):
        assert "ip_src" in DEFAULT_SCHEMA
        assert "bogus" not in DEFAULT_SCHEMA


class TestIpHelpers:
    def test_ip_parse(self):
        assert ip("0.0.0.0") == 0
        assert ip("255.255.255.255") == 0xFFFFFFFF
        assert ip("192.168.0.1") == 0xC0A80001

    def test_ip_round_trip(self):
        for addr in ("10.1.2.3", "172.16.254.1", "8.8.8.8"):
            assert str(ipaddress.IPv4Address(ip(addr))) == addr

    def test_ip_rejects_garbage(self):
        with pytest.raises(ValueError):
            ip("10.0.0")
        with pytest.raises(ValueError):
            ip("10.0.0.300")

    def test_prefix_mask(self):
        assert prefix_mask(0) == 0
        assert prefix_mask(24) == 0xFFFFFF00
        assert prefix_mask(32) == 0xFFFFFFFF
        assert prefix_mask(16, 16) == 0xFFFF
        assert prefix_mask(1, 8) == 0x80

    def test_prefix_mask_range_check(self):
        with pytest.raises(ValueError):
            prefix_mask(33)
        with pytest.raises(ValueError):
            prefix_mask(-1)
