"""TernaryMatch: a (value, mask, priority) predicate over the header fields.

This is the shared matching primitive used by pipeline tables, the Megaflow
cache, and the Gigaflow LTM tables.  A packet matches when its header equals
``value`` on every bit set in ``mask``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from .fields import DEFAULT_SCHEMA
from .key import FlowKey
from .wildcard import Wildcard


class TernaryMatch:
    """An immutable ternary predicate: match ``flow & mask == value & mask``.

    The masked value is held packed (:attr:`packed`, what the classifier
    keys its hash tables by); :attr:`canonical_key` is its tuple view,
    unpacked on first use.
    """

    __slots__ = ("_value", "_wildcard", "_packed", "_canonical", "_hash")

    def __init__(self, value: FlowKey, wildcard: Wildcard):
        self._value = value
        self._wildcard = wildcard
        # Canonicalise: bits outside the mask are irrelevant, so store the
        # masked value.  Two predicates that accept the same packets then
        # compare (and hash) equal.
        self._packed: int = value.packed & wildcard.packed
        self._canonical: Optional[Tuple[int, ...]] = None
        self._hash: Optional[int] = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_fields(
        cls,
        values: Mapping[str, int],
        masks: Optional[Mapping[str, Optional[int]]] = None,
    ) -> "TernaryMatch":
        """Build a match from field values and (optionally) per-field masks.

        With ``masks`` omitted, every field named in ``values`` is matched
        exactly and all other fields are wildcarded.
        """
        if masks is None:
            masks = {name: None for name in values}
        wildcard = Wildcard.from_fields(dict(masks))
        key = FlowKey.from_fields(values)
        return cls(key, wildcard)

    # -- accessors ----------------------------------------------------------------

    @property
    def value(self) -> FlowKey:
        return self._value

    @property
    def wildcard(self) -> Wildcard:
        return self._wildcard

    @property
    def packed(self) -> int:
        """The masked value as one integer (see
        :class:`~repro.flow.fields.FieldSchema`)."""
        return self._packed

    @property
    def canonical_key(self) -> Tuple[int, ...]:
        """The masked value tuple — a hashable canonical form."""
        canonical = self._canonical
        if canonical is None:
            canonical = self._canonical = DEFAULT_SCHEMA.unpack(self._packed)
        return canonical

    @property
    def mask_tuple(self) -> Tuple[int, ...]:
        return self._wildcard.masks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TernaryMatch):
            return NotImplemented
        return (
            self._packed == other._packed
            and self._wildcard == other._wildcard
        )

    def __hash__(self) -> int:
        # Memoized, as FlowKey's: a cache rule's match is hashed each
        # time its identity is looked up.
        h = self._hash
        if h is None:
            h = self._hash = hash((self._wildcard.packed, self._packed))
        return h

    def __repr__(self) -> str:
        parts = []
        for field, value, mask in zip(
            DEFAULT_SCHEMA, self.canonical_key, self._wildcard.masks
        ):
            if not mask:
                continue
            if mask == field.full_mask:
                parts.append(f"{field.name}={value:#x}")
            else:
                parts.append(f"{field.name}={value:#x}/{mask:#x}")
        return f"TernaryMatch({', '.join(parts) or '*'})"

    # -- evaluation ------------------------------------------------------------------

    def matches(self, flow: FlowKey) -> bool:
        """True when ``flow`` satisfies this predicate."""
        return flow.packed & self._wildcard.packed == self._packed

    def specificity(self) -> int:
        """Number of matched bits — more specific predicates match more bits."""
        return self._wildcard.bit_count()

    def overlaps(self, other: "TernaryMatch") -> bool:
        """True when some packet can satisfy both predicates.

        Two ternary predicates overlap iff they agree on every bit matched
        by both masks.
        """
        common = self._wildcard.packed & other._wildcard.packed
        return self._packed & common == other._packed & common

    def subsumes(self, other: "TernaryMatch") -> bool:
        """True when every packet matching ``other`` also matches this.

        Holds iff this mask is a subset of the other's mask and the values
        agree on this mask.
        """
        mask = self._wildcard.packed
        return (
            not mask & ~other._wildcard.packed
            and other._packed & mask == self._packed
        )
