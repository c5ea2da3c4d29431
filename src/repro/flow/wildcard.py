"""Wildcards: per-field bitmasks describing which header bits a match inspects.

A :class:`Wildcard` is the ``W_i`` of the paper's traversal vector — the set
of header bits a pipeline table (or a cache entry) examined.  Bits set to 1
are *matched* (un-wildcarded); bits set to 0 are don't-care.  The Gigaflow
rule generator combines wildcards with bitwise union (§4.2.3) and the
disjoint partitioner asks whether two wildcards share any field (§4.2.2).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Tuple

from .fields import DEFAULT_SCHEMA, FieldSchema


class Wildcard:
    """An immutable per-field mask vector over a :class:`FieldSchema`.

    Held as one packed integer (see :class:`FieldSchema`); the per-field
    tuple :attr:`masks` is a view, unpacked on first use.
    """

    __slots__ = ("_schema", "_masks", "_packed")

    def __init__(self, schema: FieldSchema, masks: Iterable[int]):
        self._schema = schema
        self._masks: Optional[Tuple[int, ...]] = tuple(masks)
        if len(self._masks) != len(schema):
            raise ValueError(
                f"expected {len(schema)} masks, got {len(self._masks)}"
            )
        for field, mask in zip(schema, self._masks):
            if mask & ~field.full_mask:
                raise ValueError(
                    f"mask {mask:#x} overflows field {field.name!r} "
                    f"({field.width} bits)"
                )
        self._packed: int = schema.pack(self._masks)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_packed(cls, schema: FieldSchema, packed: int) -> "Wildcard":
        """Build a wildcard from its packed form.  Every integer within
        the schema's width is a valid mask vector, so one range check
        replaces the per-field ones."""
        if not 0 <= packed <= schema.full_packed:
            raise ValueError(
                f"packed mask {packed:#x} does not fit the schema "
                f"({schema.full_packed.bit_length()} bits)"
            )
        self = cls.__new__(cls)
        self._schema = schema
        self._masks = None
        self._packed = packed
        return self

    @classmethod
    def empty(cls, schema: FieldSchema = DEFAULT_SCHEMA) -> "Wildcard":
        """A wildcard matching nothing (all bits don't-care)."""
        return cls.from_packed(schema, 0)

    @classmethod
    def full(cls, schema: FieldSchema = DEFAULT_SCHEMA) -> "Wildcard":
        """A wildcard matching every bit (exact-match)."""
        return cls.from_packed(schema, schema.full_packed)

    @classmethod
    def from_fields(
        cls,
        masks: Mapping[str, int],
        schema: FieldSchema = DEFAULT_SCHEMA,
    ) -> "Wildcard":
        """Build a wildcard from a ``{field name: mask}`` mapping.

        Fields absent from ``masks`` are fully wildcarded.  A mask of
        ``None`` is treated as the field's full mask (exact match).
        """
        vector = list(schema.zero_tuple)
        for name, mask in masks.items():
            index = schema.index_of(name)
            if mask is None:
                mask = schema[index].full_mask
            vector[index] = mask
        return cls(schema, vector)

    @classmethod
    def exact_fields(
        cls,
        names: Iterable[str],
        schema: FieldSchema = DEFAULT_SCHEMA,
    ) -> "Wildcard":
        """Build a wildcard that exact-matches the named fields."""
        return cls.from_fields({name: None for name in names}, schema)

    # -- basic accessors -------------------------------------------------------

    @property
    def schema(self) -> FieldSchema:
        return self._schema

    @property
    def packed(self) -> int:
        """The mask vector as one integer, fields at ``schema.shifts``."""
        return self._packed

    @property
    def masks(self) -> Tuple[int, ...]:
        masks = self._masks
        if masks is None:
            masks = self._masks = self._schema.unpack(self._packed)
        return masks

    def mask_of(self, name: str) -> int:
        return self.masks[self._schema.index_of(name)]

    def __iter__(self) -> Iterator[int]:
        return iter(self.masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Wildcard):
            return NotImplemented
        return self._packed == other._packed and self._schema == other._schema

    def __hash__(self) -> int:
        return hash(self._packed)

    def __repr__(self) -> str:
        parts = [
            f"{field.name}={mask:#x}"
            for field, mask in zip(self._schema, self.masks)
            if mask
        ]
        return f"Wildcard({', '.join(parts) or 'empty'})"

    # -- algebra ----------------------------------------------------------------

    def union(self, other: "Wildcard") -> "Wildcard":
        """Bitwise OR of two wildcards (the ``ω_k = ∪ W_i`` of §4.2.3)."""
        self._check_schema(other)
        return Wildcard.from_packed(self._schema, self._packed | other._packed)

    def intersection(self, other: "Wildcard") -> "Wildcard":
        self._check_schema(other)
        return Wildcard.from_packed(self._schema, self._packed & other._packed)

    def subtract_fields(self, names: Iterable[str]) -> "Wildcard":
        """Return a copy with the named fields fully wildcarded again.

        Used when a set-field action overwrites a header mid-traversal: bits
        of the overwritten field read *after* the action no longer depend on
        the original packet, so they must not leak into the cache entry's
        match (§4.2.3's commit computation).
        """
        schema = self._schema
        packed = self._packed
        for name in names:
            packed &= ~schema.field_masks[schema.index_of(name)]
        return Wildcard.from_packed(schema, packed)

    def with_field_mask(self, name: str, mask: int) -> "Wildcard":
        """Return a copy with the named field's mask OR-ed with ``mask``."""
        schema = self._schema
        index = schema.index_of(name)
        if mask & ~schema.full_masks[index]:
            raise ValueError(
                f"mask {mask:#x} overflows field {name!r} "
                f"({schema[index].width} bits)"
            )
        return Wildcard.from_packed(
            schema, self._packed | (mask << schema.shifts[index])
        )

    # -- predicates ---------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self._packed

    @property
    def field_bits(self) -> int:
        """The matched fields as a bitset (bit ``i`` = schema field ``i``):
        two wildcards are disjoint exactly when theirs do not intersect."""
        return self._schema.field_bits(self._packed)

    def fields_matched(self) -> Tuple[str, ...]:
        """Names of fields with at least one matched bit."""
        bits = self.field_bits
        return tuple(
            field.name
            for index, field in enumerate(self._schema)
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
        self._check_schema(other)
        return not self.field_bits & other.field_bits

    def covers(self, other: "Wildcard") -> bool:
        """True when every bit matched by ``other`` is also matched here."""
        self._check_schema(other)
        return not other._packed & ~self._packed

    def bit_count(self) -> int:
        """Total number of matched bits across all fields."""
        return self._packed.bit_count()

    # -- internals -------------------------------------------------------------------

    def _check_schema(self, other: "Wildcard") -> None:
        if self._schema != other._schema:
            raise ValueError("wildcards use different schemas")
