"""Tests for Packet and remaining flow-substrate corners."""

import pytest

from repro.flow import DEFAULT_SCHEMA, FlowKey, Packet, Wildcard
from conftest import flow


class TestPacket:
    def test_defaults(self):
        packet = Packet(flow=flow())
        assert packet.timestamp == 0.0
        assert packet.size == 64
        assert packet.flow_id == -1

    def test_flow_id_excluded_from_equality(self):
        a = Packet(flow=flow(), timestamp=1.0, flow_id=1)
        b = Packet(flow=flow(), timestamp=1.0, flow_id=2)
        assert a == b

    def test_immutable(self):
        packet = Packet(flow=flow())
        with pytest.raises(AttributeError):
            packet.timestamp = 5.0

    def test_repr_mentions_flow(self):
        assert "flow_id" in repr(Packet(flow=flow(), flow_id=9))


class TestSchemaRoundTrips:
    def test_masked_with_full_wildcard_is_values(self):
        key = flow()
        full = Wildcard.from_packed(DEFAULT_SCHEMA.full_packed)
        assert key.masked(full) == key.values

    def test_masked_with_empty_wildcard_is_zero(self):
        key = flow()
        empty = Wildcard.from_packed(0)
        assert key.masked(empty) == DEFAULT_SCHEMA.zero_tuple

    def test_zero_key(self):
        key = FlowKey(DEFAULT_SCHEMA.zero_tuple)
        assert all(v == 0 for v in key.values)
        assert key.packed == 0

    def test_repr_skips_zero_fields(self):
        key = FlowKey.from_fields({"tp_dst": 80})
        assert "tp_dst" in repr(key)
        assert "ip_src" not in repr(key)
