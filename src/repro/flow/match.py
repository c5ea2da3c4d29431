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

    ``value`` (a :class:`FlowKey`), ``wildcard`` and ``packed``, the
    masked value as one integer that the classifier keys its hash
    tables by, are plain attributes, read-only by convention;
    :attr:`canonical_key` is the tuple view of ``packed``, unpacked on
    first use.  ``__hash__`` is the hash of the packed wildcard and
    value.
    """

    __slots__ = ("value", "wildcard", "packed", "_canonical", "_hash")

    def __init__(self, value: FlowKey, wildcard: Wildcard):
        self.value = value
        self.wildcard = wildcard
        # Canonicalise: bits outside the mask are irrelevant, so store the
        # masked value.  Two predicates that accept the same packets then
        # compare (and hash) equal.
        self.packed: int = value.packed & wildcard.packed
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
    def canonical_key(self) -> Tuple[int, ...]:
        """The masked value tuple — a hashable canonical form."""
        canonical = self._canonical
        if canonical is None:
            canonical = self._canonical = DEFAULT_SCHEMA.unpack(self.packed)
        return canonical

    @property
    def mask_tuple(self) -> Tuple[int, ...]:
        return self.wildcard.masks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TernaryMatch):
            return NotImplemented
        return (
            self.packed == other.packed
            and self.wildcard == other.wildcard
        )

    def __hash__(self) -> int:
        # Memoized, as FlowKey's: a cache rule's match is hashed each
        # time its identity is looked up.
        h = self._hash
        if h is None:
            h = self._hash = hash((self.wildcard.packed, self.packed))
        return h

    def __repr__(self) -> str:
        parts = []
        for field, value, mask in zip(
            DEFAULT_SCHEMA, self.canonical_key, self.wildcard.masks
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
        return flow.packed & self.wildcard.packed == self.packed

    def specificity(self) -> int:
        """Number of matched bits — more specific predicates match more bits."""
        return self.wildcard.bit_count()

    def overlaps(self, other: "TernaryMatch") -> bool:
        """True when some packet can satisfy both predicates.

        Two ternary predicates overlap iff they agree on every bit matched
        by both masks.
        """
        common = self.wildcard.packed & other.wildcard.packed
        return self.packed & common == other.packed & common

    def subsumes(self, other: "TernaryMatch") -> bool:
        """True when every packet matching ``other`` also matches this.

        Holds iff this mask is a subset of the other's mask and the values
        agree on this mask.
        """
        mask = self.wildcard.packed
        return (
            not mask & ~other.wildcard.packed
            and other.packed & mask == self.packed
        )
