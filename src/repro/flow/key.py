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

    Carries the same vector twice: the per-field tuple :attr:`values`
    and the packed integer :attr:`packed` the classifier probes with.
    """

    __slots__ = ("_values", "_hash", "_packed")

    def __init__(self, values: Iterable[int]):
        self._values: Tuple[int, ...] = tuple(values)
        self._hash = None
        if len(self._values) != len(DEFAULT_SCHEMA):
            raise ValueError(
                f"expected {len(DEFAULT_SCHEMA)} values, "
                f"got {len(self._values)}"
            )
        for field, value in zip(DEFAULT_SCHEMA, self._values):
            field.validate_value(value)
        self._packed: int = DEFAULT_SCHEMA.pack(self._values)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_fields(cls, values: Mapping[str, int]) -> "FlowKey":
        """Build a key from a ``{field name: value}`` mapping; rest zero."""
        vector = [0] * len(DEFAULT_SCHEMA)
        for name, value in values.items():
            vector[DEFAULT_SCHEMA.index_of(name)] = value
        return cls(vector)

    # -- accessors ----------------------------------------------------------------

    @property
    def values(self) -> Tuple[int, ...]:
        return self._values

    @property
    def packed(self) -> int:
        """The values as one integer, fields at ``DEFAULT_SCHEMA.shifts``."""
        return self._packed

    def get(self, name: str) -> int:
        return self._values[DEFAULT_SCHEMA.index_of(name)]

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        return self._packed == other._packed

    def __hash__(self) -> int:
        # Memoized: keys are immutable and shared across every packet of
        # a flow, and telemetry derives flow ids from this per event.
        h = self._hash
        if h is None:
            h = self._hash = hash(self._values)
        return h

    def __repr__(self) -> str:
        parts = [
            f"{field.name}={value:#x}"
            for field, value in zip(DEFAULT_SCHEMA, self._values)
            if value
        ]
        return f"FlowKey({', '.join(parts) or 'zero'})"

    # -- operations -------------------------------------------------------------------

    def set_field(self, name: str, value: int) -> "FlowKey":
        """Return a copy with one field replaced (set-field action)."""
        index = DEFAULT_SCHEMA.index_of(name)
        DEFAULT_SCHEMA[index].validate_value(value)
        values = self._values
        # Only the replaced field is new: the rest was validated, and
        # packed, when this key was built.
        copy = FlowKey.__new__(FlowKey)
        copy._values = values[:index] + (value,) + values[index + 1:]
        copy._hash = None
        copy._packed = self._packed ^ (
            (values[index] ^ value) << DEFAULT_SCHEMA.shifts[index]
        )
        return copy

    def masked(self, wildcard: Wildcard) -> Tuple[int, ...]:
        """Project the key through a wildcard: ``value & mask`` per field.

        The result is a plain tuple — the canonical hashable form used as a
        hash-table key by the TSS classifier and the LTM tables.
        """
        return tuple(v & m for v, m in zip(self._values, wildcard.masks))

    def matches(self, value: "FlowKey", wildcard: Wildcard) -> bool:
        """True when this key equals ``value`` on the wildcarded bits."""
        return not (self._packed ^ value.packed) & wildcard.packed

    def diff_fields(self, other: "FlowKey") -> Tuple[str, ...]:
        """Names of fields on which the two keys differ."""
        if self._packed == other._packed:
            return ()
        return tuple(
            field.name
            for field, a, b in zip(DEFAULT_SCHEMA, self._values, other._values)
            if a != b
        )
