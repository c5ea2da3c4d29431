"""Packet and flow substrate: fields, keys, wildcards, matches, actions."""

from .fields import (
    DEFAULT_FIELDS,
    DEFAULT_SCHEMA,
    Field,
    FieldSchema,
    ip,
    prefix_mask,
)
from .key import FlowKey
from .wildcard import Wildcard
from .match import TernaryMatch
from .actions import (
    Action,
    ActionList,
    Controller,
    Drop,
    Output,
    SetField,
)
from .packet import Packet

__all__ = [
    "Action",
    "ActionList",
    "Controller",
    "DEFAULT_FIELDS",
    "DEFAULT_SCHEMA",
    "Drop",
    "Field",
    "FieldSchema",
    "FlowKey",
    "Output",
    "Packet",
    "SetField",
    "TernaryMatch",
    "Wildcard",
    "ip",
    "prefix_mask",
]
