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
from typing import Iterable, Iterator, Optional, Tuple

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


class ActionList:
    """An immutable ordered list of actions with composition helpers.

    The tuple ``actions`` is a plain attribute, read-only by convention.
    """

    __slots__ = ("actions", "_hash")

    def __init__(self, actions: Iterable[Action] = ()):
        self.actions: Tuple[Action, ...] = tuple(actions)
        self._hash: Optional[int] = None

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

    def is_terminal(self) -> bool:
        """True when the list ends the packet's journey (output/drop/punt)."""
        return any(
            isinstance(a, (Output, Drop, Controller)) for a in self.actions
        )

    def output_port(self) -> Optional[int]:
        """The output port if the list forwards the packet, else ``None``."""
        for action in self.actions:
            if isinstance(action, Output):
                return action.port
        return None

    def drops(self) -> bool:
        return any(isinstance(a, Drop) for a in self.actions)

    def modified_fields(self) -> Tuple[str, ...]:
        """Names of fields overwritten by set-field actions, in order."""
        seen = []
        for action in self.actions:
            if isinstance(action, SetField) and action.field not in seen:
                seen.append(action.field)
        return tuple(seen)

    # -- evaluation --------------------------------------------------------------------

    def apply(self, flow: FlowKey) -> FlowKey:
        """Apply set-field actions to a flow key; terminal actions are no-ops
        on the key itself (forwarding is recorded by the caller)."""
        for action in self.actions:
            if isinstance(action, SetField):
                flow = flow.set_field(action.field, action.value)
        return flow

    @staticmethod
    def commit(before: FlowKey, after: FlowKey, tail: "ActionList") -> "ActionList":
        """Compute the paper's *commit*: the set-field actions that rewrite
        ``before`` into ``after``, followed by any terminal actions of
        ``tail`` (§4.2.3).

        The commit is what a cache entry replays so that a hit reproduces the
        cumulative effect of a (sub-)traversal in one step.
        """
        sets = [
            SetField(name, after.get(name))
            for name in before.diff_fields(after)
        ]
        terminals = tuple(
            a for a in tail.actions if isinstance(a, (Output, Drop, Controller))
        )
        return ActionList(tuple(sets) + terminals)
