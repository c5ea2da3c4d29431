"""Wildcards: per-field bitmasks describing which header bits a match inspects.

A :class:`Wildcard` is the ``W_i`` of the paper's traversal vector — the set
of header bits a pipeline table (or a cache entry) examined.  Bits set to 1
are *matched* (un-wildcarded); bits set to 0 are don't-care.  The Gigaflow
rule generator combines wildcards with bitwise union (§4.2.3) and the
disjoint partitioner asks whether two wildcards share any field (§4.2.2).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Tuple

from .fields import DEFAULT_SCHEMA


class Wildcard:
    """An immutable per-field mask vector over the header fields.

    Held as one packed integer, the plain attribute ``packed`` (fields
    at ``DEFAULT_SCHEMA.shifts``, read-only by convention); the
    per-field tuple :attr:`masks` is a view, unpacked on first use.
    ``__hash__`` is the hash of ``packed``.
    """

    __slots__ = ("_masks", "packed")

    def __init__(self, masks: Iterable[int]):
        self._masks: Optional[Tuple[int, ...]] = tuple(masks)
        if len(self._masks) != len(DEFAULT_SCHEMA):
            raise ValueError(
                f"expected {len(DEFAULT_SCHEMA)} masks, "
                f"got {len(self._masks)}"
            )
        for field, mask in zip(DEFAULT_SCHEMA, self._masks):
            if mask & ~field.full_mask:
                raise ValueError(
                    f"mask {mask:#x} overflows field {field.name!r} "
                    f"({field.width} bits)"
                )
        self.packed: int = DEFAULT_SCHEMA.pack(self._masks)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_packed(cls, packed: int) -> "Wildcard":
        """Build a wildcard from its packed form.  Every integer within
        the layout's width is a valid mask vector, so one range check
        replaces the per-field ones."""
        if not 0 <= packed <= DEFAULT_SCHEMA.full_packed:
            raise ValueError(
                f"packed mask {packed:#x} does not fit the layout "
                f"({DEFAULT_SCHEMA.full_packed.bit_length()} bits)"
            )
        self = cls.__new__(cls)
        self._masks = None
        self.packed = packed
        return self

    @classmethod
    def from_fields(cls, masks: Mapping[str, int]) -> "Wildcard":
        """Build a wildcard from a ``{field name: mask}`` mapping.

        Fields absent from ``masks`` are fully wildcarded.  A mask of
        ``None`` is treated as the field's full mask (exact match).
        """
        vector = list(DEFAULT_SCHEMA.zero_tuple)
        for name, mask in masks.items():
            index = DEFAULT_SCHEMA.index_of(name)
            if mask is None:
                mask = DEFAULT_SCHEMA[index].full_mask
            vector[index] = mask
        return cls(vector)

    @classmethod
    def exact_fields(cls, names: Iterable[str]) -> "Wildcard":
        """Build a wildcard that exact-matches the named fields."""
        return cls.from_fields(dict.fromkeys(names))

    # -- basic accessors -------------------------------------------------------

    @property
    def masks(self) -> Tuple[int, ...]:
        masks = self._masks
        if masks is None:
            masks = self._masks = DEFAULT_SCHEMA.unpack(self.packed)
        return masks

    def mask_of(self, name: str) -> int:
        return self.masks[DEFAULT_SCHEMA.index_of(name)]

    def __iter__(self) -> Iterator[int]:
        return iter(self.masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Wildcard):
            return NotImplemented
        return self.packed == other.packed

    def __hash__(self) -> int:
        return hash(self.packed)

    def __repr__(self) -> str:
        parts = [
            f"{field.name}={mask:#x}"
            for field, mask in zip(DEFAULT_SCHEMA, self.masks)
            if mask
        ]
        return f"Wildcard({', '.join(parts) or 'empty'})"

    # -- algebra ----------------------------------------------------------------

    def union(self, other: "Wildcard") -> "Wildcard":
        """Bitwise OR of two wildcards (the ``ω_k = ∪ W_i`` of §4.2.3)."""
        return Wildcard.from_packed(self.packed | other.packed)

    def intersection(self, other: "Wildcard") -> "Wildcard":
        return Wildcard.from_packed(self.packed & other.packed)

    # -- predicates ---------------------------------------------------------------

    @property
    def field_bits(self) -> int:
        """The matched fields as a bitset (bit ``i`` = field ``i``): two
        wildcards are disjoint exactly when theirs do not intersect."""
        return DEFAULT_SCHEMA.field_bits(self.packed)

    def fields_matched(self) -> Tuple[str, ...]:
        """Names of fields with at least one matched bit."""
        bits = self.field_bits
        return tuple(
            field.name
            for index, field in enumerate(DEFAULT_SCHEMA)
            if bits >> index & 1
        )

    def field_set(self) -> frozenset:
        """Set of matched field names (the unit of disjointness analysis)."""
        return frozenset(self.fields_matched())

    def is_disjoint(self, other: "Wildcard") -> bool:
        """True when the two wildcards share no matched field.

        This is the paper's *disjointedness property* (§4.2.2): two
        sub-traversals are disjoint when they have no matching fields in
        common.  Disjointness is decided at field granularity, matching the
        paper's examples (Ethernet vs. TCP ports).
        """
        return not self.field_bits & other.field_bits

    def covers(self, other: "Wildcard") -> bool:
        """True when every bit matched by ``other`` is also matched here."""
        return not other.packed & ~self.packed

    def bit_count(self) -> int:
        """Total number of matched bits across all fields."""
        return self.packed.bit_count()
