"""An ``ovs-ofctl``-style flow-rule text format.

Lets users express pipeline rules the way OVS operators do::

    table=2, priority=300, ip, nw_dst=192.168.1.0/24, actions=goto_table:3
    table=3, priority=500, tcp, tp_dst=443, actions=output:9
    table=3, priority=10, actions=drop

Supported match keys (mapped onto the ten-field schema):

================  ==============================
ofctl key         schema field
================  ==============================
in_port           in_port
dl_src / dl_dst   eth_src / eth_dst
dl_type           eth_type
dl_vlan           vlan_id
nw_src / nw_dst   ip_src / ip_dst (CIDR allowed)
nw_proto          ip_proto
tp_src / tp_dst   tp_src / tp_dst
ip / tcp / udp    dl_type/nw_proto shorthands
================  ==============================

Actions: ``output:N``, ``drop``, ``controller``, ``goto_table:N``,
``set_field:VALUE->FIELD`` and ``mod_nw_*`` / ``mod_dl_*`` shorthands.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from ..flow.actions import (
    Action,
    ActionList,
    Controller,
    Drop,
    Output,
    SetField,
)
from ..flow.fields import DEFAULT_SCHEMA, ip, prefix_mask
from ..flow.match import TernaryMatch
from ..pipeline.pipeline import Pipeline
from ..pipeline.rule import PipelineRule


class OfctlParseError(ValueError):
    """Raised on malformed rule text."""


_MATCH_KEYS = {
    "in_port": "in_port",
    "dl_src": "eth_src",
    "dl_dst": "eth_dst",
    "dl_type": "eth_type",
    "dl_vlan": "vlan_id",
    "nw_src": "ip_src",
    "nw_dst": "ip_dst",
    "nw_proto": "ip_proto",
    "tp_src": "tp_src",
    "tp_dst": "tp_dst",
}

_PROTO_SHORTHANDS = {
    "ip": {"eth_type": 0x0800},
    "arp": {"eth_type": 0x0806},
    "tcp": {"eth_type": 0x0800, "ip_proto": 6},
    "udp": {"eth_type": 0x0800, "ip_proto": 17},
    "icmp": {"eth_type": 0x0800, "ip_proto": 1},
}

_MOD_ACTIONS = {
    "mod_nw_src": "ip_src",
    "mod_nw_dst": "ip_dst",
    "mod_dl_src": "eth_src",
    "mod_dl_dst": "eth_dst",
    "mod_vlan_vid": "vlan_id",
    "mod_tp_src": "tp_src",
    "mod_tp_dst": "tp_dst",
}

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}$")


def _parse_value(field: str, text: str) -> Tuple[int, Optional[int]]:
    """Parse one match value; returns (value, mask or None=exact)."""
    text = text.strip()
    if field in ("ip_src", "ip_dst"):
        if "/" in text:
            addr, plen_text = text.split("/", 1)
            try:
                plen = int(plen_text)
            except ValueError as exc:
                raise OfctlParseError(
                    f"bad prefix length in {text!r}"
                ) from exc
            return ip(addr), prefix_mask(plen)
        return ip(text), None
    if field in ("eth_src", "eth_dst") and _MAC_RE.match(text):
        return int(text.replace(":", ""), 16), None
    try:
        return int(text, 0), None
    except ValueError as exc:
        raise OfctlParseError(
            f"cannot parse value {text!r} for field {field}"
        ) from exc


def _parse_action(text: str) -> Tuple[Optional[Action], Optional[int]]:
    """Parse one action token; returns (action, goto_table)."""
    text = text.strip()
    if text == "drop":
        return Drop(), None
    if text.startswith("controller"):
        return Controller(), None
    if text.startswith("output:"):
        return Output(int(text.split(":", 1)[1], 0)), None
    if text.startswith("goto_table:"):
        return None, int(text.split(":", 1)[1], 0)
    if text.startswith("set_field:"):
        body = text[len("set_field:"):]
        if "->" not in body:
            raise OfctlParseError(f"bad set_field syntax: {text!r}")
        value_text, field = body.rsplit("->", 1)
        field = field.strip()
        if field not in DEFAULT_SCHEMA:
            raise OfctlParseError(f"unknown field in {text!r}")
        value, _ = _parse_value(field, value_text)
        return SetField(field, value), None
    for prefix, field in _MOD_ACTIONS.items():
        if text.startswith(prefix + ":"):
            value, _ = _parse_value(field, text.split(":", 1)[1])
            return SetField(field, value), None
    raise OfctlParseError(f"unknown action {text!r}")


def _split_top_level(text: str) -> List[str]:
    """Split on commas that are not inside an ``actions=`` clause."""
    if "actions=" not in text:
        raise OfctlParseError(f"rule needs an actions= clause: {text!r}")
    head, actions = text.split("actions=", 1)
    parts = [p.strip() for p in head.split(",") if p.strip()]
    parts.append("actions=" + actions.strip())
    return parts


@contextmanager
def _token(token: str) -> Iterator[None]:
    """Re-raise a bare ``ValueError`` from the standard parsers
    (``int()``, :func:`ip`, :func:`prefix_mask`, the field-width check)
    as an :class:`OfctlParseError` naming ``token``."""
    try:
        yield
    except OfctlParseError:
        raise
    except ValueError as exc:
        raise OfctlParseError(f"bad token {token!r}: {exc}") from exc


def parse_rule(text: str) -> Tuple[int, PipelineRule]:
    """Parse one rule line; returns ``(table_id, rule)``."""
    parts = _split_top_level(text)
    table_id = 0
    priority = 1
    values: Dict[str, int] = {}
    masks: Dict[str, Optional[int]] = {}
    actions: List[Action] = []
    goto: Optional[int] = None

    for part in parts:
        if part.startswith("actions="):
            tokens = [t for t in part[len("actions="):].split(",") if t]
            if not tokens:
                raise OfctlParseError(f"empty actions in {text!r}")
            for token in tokens:
                with _token(token):
                    action, maybe_goto = _parse_action(token)
                if maybe_goto is not None:
                    goto = maybe_goto
                elif action is not None:
                    actions.append(action)
            continue
        if "=" in part:
            key, value_text = part.split("=", 1)
            key = key.strip()
            with _token(part):
                if key == "table":
                    table_id = int(value_text, 0)
                elif key == "priority":
                    priority = int(value_text, 0)
                elif key in _MATCH_KEYS:
                    field = _MATCH_KEYS[key]
                    value, mask = _parse_value(field, value_text)
                    values[field] = DEFAULT_SCHEMA.field(field).validate_value(
                        value
                    )
                    masks[field] = mask
                else:
                    raise OfctlParseError(f"unknown match key {key!r}")
        elif part in _PROTO_SHORTHANDS:
            for field, value in _PROTO_SHORTHANDS[part].items():
                values.setdefault(field, value)
                masks.setdefault(field, None)
        else:
            raise OfctlParseError(f"unknown token {part!r}")

    match = TernaryMatch.from_fields(values, masks)
    rule = PipelineRule(
        match=match,
        priority=priority,
        actions=ActionList(actions),
        next_table=goto,
    )
    return table_id, rule


def parse_rules(text: str) -> List[Tuple[int, PipelineRule]]:
    """Parse a multi-line rule listing (``#`` comments allowed)."""
    rules = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rules.append(parse_rule(line))
        except OfctlParseError as exc:
            raise OfctlParseError(f"line {line_no}: {exc}") from exc
    return rules


def install_rules(pipeline: Pipeline, text: str) -> int:
    """Parse a listing and install every rule; returns the count."""
    parsed = parse_rules(text)
    for table_id, rule in parsed:
        pipeline.install(table_id, rule)
    return len(parsed)
