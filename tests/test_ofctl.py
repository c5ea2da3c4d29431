"""Tests for the ofctl-style rule text format."""

import pytest

from repro.flow import DEFAULT_SCHEMA, SetField, ip, prefix_mask
from repro.io import (
    OfctlParseError,
    install_rules,
    parse_rule,
    parse_rules,
)
from repro.pipeline import Pipeline, PipelineTable
from conftest import flow


class TestParseRule:
    def test_basic_output_rule(self):
        table_id, rule = parse_rule(
            "table=3, priority=500, tcp, tp_dst=443, actions=output:9"
        )
        assert table_id == 3
        assert rule.priority == 500
        assert rule.actions.output_port() == 9
        assert rule.match.matches(flow(tp_dst=443))
        assert not rule.match.matches(flow(tp_dst=80))

    def test_cidr_prefix(self):
        _, rule = parse_rule(
            "table=2, ip, nw_dst=192.168.1.0/24, actions=goto_table:3"
        )
        assert rule.next_table == 3
        assert rule.match.matches(flow(ip_dst=ip("192.168.1.200")))
        assert not rule.match.matches(flow(ip_dst=ip("192.168.2.1")))
        index = DEFAULT_SCHEMA.index_of("ip_dst")
        assert rule.match.mask_tuple[index] == prefix_mask(24)

    def test_mac_address(self):
        _, rule = parse_rule(
            "dl_dst=0a:00:00:00:00:2a, actions=output:1"
        )
        assert rule.match.matches(flow(eth_dst=0x0A000000002A))

    def test_protocol_shorthands(self):
        _, tcp_rule = parse_rule("tcp, actions=drop")
        assert tcp_rule.match.matches(flow(ip_proto=6, eth_type=0x0800))
        assert not tcp_rule.match.matches(flow(ip_proto=17))
        _, arp_rule = parse_rule("arp, actions=controller")
        assert arp_rule.match.matches(flow(eth_type=0x0806))

    def test_drop_and_set_field(self):
        _, rule = parse_rule(
            "table=1, priority=7, "
            "actions=set_field:0x2a->vlan_id,mod_nw_dst:10.0.0.9,drop"
        )
        sets = [a for a in rule.actions if isinstance(a, SetField)]
        assert SetField("vlan_id", 0x2A) in sets
        assert SetField("ip_dst", ip("10.0.0.9")) in sets
        assert rule.actions.drops()

    def test_default_table_and_priority(self):
        table_id, rule = parse_rule("in_port=3, actions=output:1")
        assert table_id == 0
        assert rule.priority == 1

    @pytest.mark.parametrize("bad", [
        "in_port=3",                        # no actions
        "frobnicate=1, actions=drop",       # unknown key
        "actions=teleport:3",               # unknown action
        "nw_dst=10.0.0.0/zz, actions=drop", # bad prefix
        "in_port=3, actions=",              # empty actions
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(OfctlParseError):
            parse_rule(bad)


class TestParseListing:
    LISTING = """
    # port security
    table=0, priority=10, in_port=1, actions=goto_table:1
    table=1, priority=500, tcp, tp_dst=443, actions=output:9

    table=1, priority=1, actions=drop
    """

    def test_comments_and_blanks_skipped(self):
        rules = parse_rules(self.LISTING)
        assert len(rules) == 3

    def test_error_reports_line_number(self):
        with pytest.raises(OfctlParseError, match="line 2"):
            parse_rules("table=0, actions=drop\nbogus~line, actions=x")

    @pytest.mark.parametrize("rule, token", [
        ("table=x, actions=drop", "table=x"),
        ("priority=1, actions=output:abc", "output:abc"),
        ("actions=goto_table:zz", "goto_table:zz"),
        ("nw_dst=10.0.0.0/40, actions=drop", "nw_dst=10.0.0.0/40"),
        ("nw_dst=10.0.0.0/-1, actions=drop", "nw_dst=10.0.0.0/-1"),
        ("nw_dst=10.0.0.300, actions=drop", "nw_dst=10.0.0.300"),
        ("tp_dst=99999999, actions=drop", "tp_dst=99999999"),
    ])
    def test_bad_value_names_line_and_token(self, rule, token):
        """A value the standard parsers reject (``int()``, ``ip()``,
        ``prefix_mask()``, the field width) is an ``OfctlParseError``
        naming the line and the token, not a bare ``ValueError``."""
        with pytest.raises(OfctlParseError) as info:
            parse_rules("# c\n" + rule)
        assert str(info.value).startswith("line 2:")
        assert repr(token) in str(info.value)

    def test_install_into_pipeline(self):
        t0 = PipelineTable(0, "ingress", ("in_port",))
        t1 = PipelineTable(
            1, "acl", ("eth_type", "ip_proto", "tp_dst"))
        pipeline = Pipeline("ofctl", (t0, t1))
        count = install_rules(pipeline, self.LISTING)
        assert count == 3
        traversal = pipeline.execute(flow(in_port=1, tp_dst=443))
        assert traversal.table_ids == (0, 1)
        assert traversal.steps[-1].actions.output_port() == 9

