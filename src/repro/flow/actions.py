"""Flow actions: the action half of every match-action rule in the system.

Pipeline rules, Megaflow entries, and Gigaflow LTM rules all carry an
:class:`ActionList`.  The vocabulary mirrors the paper's P4 program (Fig. 6):
``set_field`` (covering its ``set_ethernet`` / ``set_ip`` / ``set_transport``),
``forward``, ``drop``, plus ``controller`` for slow-path punts inside
pipeline definitions.  Tag updates are handled by the LTM machinery, not as
user-visible actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .fields import DEFAULT_SCHEMA
from .key import FlowKey


@dataclass(frozen=True)
class Action:
    """Base class for all actions (purely a typing anchor)."""


@dataclass(frozen=True)
class SetField(Action):
    """Overwrite one header field with a constant value."""

    field: str
    value: int

    def __repr__(self) -> str:
        return f"SetField({self.field}={self.value:#x})"


@dataclass(frozen=True)
class Output(Action):
    """Forward the packet out of a port (terminal)."""

    port: int

    def __repr__(self) -> str:
        return f"Output({self.port})"


@dataclass(frozen=True)
class Drop(Action):
    """Discard the packet (terminal)."""

    def __repr__(self) -> str:
        return "Drop()"


@dataclass(frozen=True)
class Controller(Action):
    """Punt the packet to the controller / slow path (terminal)."""

    def __repr__(self) -> str:
        return "Controller()"


#: Distinct ``(field index, value)`` set-fields :meth:`ActionList.commit`
#: shares before it starts over.
SET_FIELD_MEMO_SIZE = 1 << 14

#: The shared set-fields, by ``(field index, value)``.
_set_fields: Dict[Tuple[int, int], SetField] = {}

_TERMINAL = (Output, Drop, Controller)


def _set_field(index: int, value: int) -> SetField:
    """The one :class:`SetField` of field ``index`` to ``value``:
    equal set-fields are interchangeable, and a commit builds one per
    rewritten field."""
    key = (index, value)
    action = _set_fields.get(key)
    if action is None:
        if len(_set_fields) >= SET_FIELD_MEMO_SIZE:
            _set_fields.clear()
        action = _set_fields[key] = SetField(
            DEFAULT_SCHEMA[index].name, value
        )
    return action


class ActionList:
    """An immutable ordered list of actions with composition helpers.

    The tuple ``actions`` is a plain attribute, read-only by convention.
    On first use a list resolves itself once (:meth:`_resolve`): its
    set-fields as validated ``(field index, value)`` pairs, the packed
    mask of the fields they overwrite, its terminal actions and its
    output port.
    """

    __slots__ = (
        "actions", "_hash", "_rewrites", "_sets", "_terminals", "_port",
    )

    def __init__(self, actions: Iterable[Action] = ()):
        self.actions: Tuple[Action, ...] = tuple(actions)
        self._hash: Optional[int] = None
        #: ``None`` until resolved; then the packed mask of the fields
        #: the set-fields overwrite.
        self._rewrites: Optional[int] = None
        self._sets: Tuple[Tuple[int, int], ...] = ()
        self._terminals: Tuple[Action, ...] = ()
        self._port: Optional[int] = None

    # -- container protocol ------------------------------------------------------

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __bool__(self) -> bool:
        return bool(self.actions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActionList):
            return NotImplemented
        return self.actions == other.actions

    def __hash__(self) -> int:
        # Memoized, as FlowKey's: hashing the actions hashes every
        # dataclass in them, and a cache rule's identity holds its list.
        h = self._hash
        if h is None:
            h = self._hash = hash(self.actions)
        return h

    def __repr__(self) -> str:
        return f"ActionList({list(self.actions)})"

    # -- queries ---------------------------------------------------------------------

    def _resolve(self) -> int:
        """Work out, once, the set-field pairs (each value checked
        against its field's width), the rewrite mask, the terminal
        actions and the output port; returns the rewrite mask."""
        field_masks = DEFAULT_SCHEMA.field_masks
        index_of = DEFAULT_SCHEMA.index_of
        rewrites = 0
        sets = []
        terminals = []
        port = None
        for action in self.actions:
            if isinstance(action, SetField):
                index = index_of(action.field)
                DEFAULT_SCHEMA[index].validate_value(action.value)
                sets.append((index, action.value))
                rewrites |= field_masks[index]
            elif isinstance(action, _TERMINAL):
                terminals.append(action)
                if port is None and isinstance(action, Output):
                    port = action.port
        self._sets = tuple(sets)
        self._terminals = tuple(terminals)
        self._port = port
        self._rewrites = rewrites
        return rewrites

    def rewrite_mask(self) -> int:
        """Packed mask of every field a set-field action overwrites."""
        rewrites = self._rewrites
        if rewrites is None:
            rewrites = self._resolve()
        return rewrites

    def terminals(self) -> Tuple[Action, ...]:
        """The terminal actions (output/drop/punt), in order."""
        if self._rewrites is None:
            self._resolve()
        return self._terminals

    def is_terminal(self) -> bool:
        """True when the list ends the packet's journey (output/drop/punt)."""
        return bool(self.terminals())

    def output_port(self) -> Optional[int]:
        """The output port if the list forwards the packet, else ``None``."""
        if self._rewrites is None:
            self._resolve()
        return self._port

    def drops(self) -> bool:
        return any(isinstance(a, Drop) for a in self.actions)

    # -- evaluation --------------------------------------------------------------------

    def apply(self, flow: FlowKey) -> FlowKey:
        """Apply set-field actions to a flow key; terminal actions are no-ops
        on the key itself (forwarding is recorded by the caller)."""
        if self._rewrites is None:
            self._resolve()
        sets = self._sets
        return flow.with_fields(sets) if sets else flow

    @staticmethod
    def commit(before: FlowKey, after: FlowKey, tail: "ActionList") -> "ActionList":
        """Compute the paper's *commit*: the set-field actions that rewrite
        ``before`` into ``after``, followed by any terminal actions of
        ``tail`` (§4.2.3).

        The commit is what a cache entry replays so that a hit reproduces the
        cumulative effect of a (sub-)traversal in one step.  The changed
        fields are the bits of ``before.packed ^ after.packed``, in
        schema order, and the commit is built resolved.
        """
        terminals = tail.terminals()
        changed = before.packed ^ after.packed
        rewrites = 0
        if changed:
            values = after.values
            sets = []
            for index, field_mask in enumerate(DEFAULT_SCHEMA.field_masks):
                if changed & field_mask:
                    rewrites |= field_mask
                    sets.append((index, values[index]))
            commit = ActionList(
                tuple([_set_field(*pair) for pair in sets]) + terminals
            )
            commit._sets = tuple(sets)
        else:
            commit = ActionList(terminals)
        commit._terminals = terminals
        commit._port = tail._port
        commit._rewrites = rewrites
        return commit
