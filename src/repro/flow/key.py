"""FlowKey: the concrete header values of a packet (the paper's flow ``F``).

A flow key is the flow signature extracted from a packet — one integer per
header field of :data:`~repro.flow.fields.DEFAULT_SCHEMA`.  It is the
object that traverses the vSwitch pipeline, gets modified by set-field
actions, and is masked into cache-entry match predicates.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Tuple

from .fields import DEFAULT_SCHEMA
from .wildcard import Wildcard


class FlowKey:
    """An immutable vector of concrete header-field values.

    Carries the same vector twice, as plain attributes that are
    read-only by convention: the per-field tuple ``values`` and the
    packed integer ``packed`` (fields at ``DEFAULT_SCHEMA.shifts``) that
    the classifier probes with and the exact-match memos key by.
    ``__hash__`` stays the hash of ``values``: telemetry flow ids are
    derived from it.
    """

    __slots__ = ("values", "_hash", "packed")

    def __init__(self, values: Iterable[int]):
        self.values: Tuple[int, ...] = tuple(values)
        self._hash = None
        if len(self.values) != len(DEFAULT_SCHEMA):
            raise ValueError(
                f"expected {len(DEFAULT_SCHEMA)} values, "
                f"got {len(self.values)}"
            )
        for field, value in zip(DEFAULT_SCHEMA, self.values):
            field.validate_value(value)
        self.packed: int = DEFAULT_SCHEMA.pack(self.values)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_fields(cls, values: Mapping[str, int]) -> "FlowKey":
        """Build a key from a ``{field name: value}`` mapping; rest zero."""
        vector = [0] * len(DEFAULT_SCHEMA)
        for name, value in values.items():
            vector[DEFAULT_SCHEMA.index_of(name)] = value
        return cls(vector)

    # -- accessors ----------------------------------------------------------------

    def get(self, name: str) -> int:
        return self.values[DEFAULT_SCHEMA.index_of(name)]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        return self.packed == other.packed

    def __hash__(self) -> int:
        # Memoized: keys are immutable and shared across every packet of
        # a flow, and telemetry derives flow ids from this per event.
        h = self._hash
        if h is None:
            h = self._hash = hash(self.values)
        return h

    def __repr__(self) -> str:
        parts = [
            f"{field.name}={value:#x}"
            for field, value in zip(DEFAULT_SCHEMA, self.values)
            if value
        ]
        return f"FlowKey({', '.join(parts) or 'zero'})"

    # -- operations -------------------------------------------------------------------

    def with_fields(self, sets: Iterable[Tuple[int, int]]) -> "FlowKey":
        """Return a copy with each ``(field index, value)`` of ``sets``
        written in order (set-field actions).  The values are already
        validated (an :class:`~repro.flow.actions.ActionList` checks its
        set-fields once), and only the written fields are new: the rest
        was validated, and packed, when this key was built."""
        values = list(self.values)
        packed = self.packed
        shifts = DEFAULT_SCHEMA.shifts
        for index, value in sets:
            packed ^= (values[index] ^ value) << shifts[index]
            values[index] = value
        copy = FlowKey.__new__(FlowKey)
        copy.values = tuple(values)
        copy._hash = None
        copy.packed = packed
        return copy

    def masked(self, wildcard: Wildcard) -> Tuple[int, ...]:
        """Project the key through a wildcard: ``value & mask`` per field.

        The result is a plain tuple — the canonical hashable form used as a
        hash-table key by the TSS classifier and the LTM tables.
        """
        return tuple(v & m for v, m in zip(self.values, wildcard.masks))

    def matches(self, value: "FlowKey", wildcard: Wildcard) -> bool:
        """True when this key equals ``value`` on the wildcarded bits."""
        return not (self.packed ^ value.packed) & wildcard.packed
