"""The header layout of the Gigaflow reproduction.

The paper's LTM table (Fig. 6) matches, per cache table, an exact-match
table tag plus ten ternary header fields, fixed when the P4 program is
compiled.  This module defines those ten fields (:data:`DEFAULT_FIELDS`)
and the one layout built from them, :data:`DEFAULT_SCHEMA`, which every
key, mask, classifier, table and cache uses.  It is the only module that
knows the layout: to change the fields, edit :data:`DEFAULT_FIELDS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Tuple


#: Masks whose field bitset :meth:`FieldSchema.field_bits` remembers
#: before it starts over.
FIELD_BITS_MEMO_SIZE = 1 << 14


@dataclass(frozen=True)
class Field:
    """A single packet header field.

    Attributes:
        name: Canonical field name (e.g. ``"ip_dst"``).
        width: Width in bits.  Masks and values for this field must fit in
            ``width`` bits.
        layer: Protocol layer the field belongs to (``"port"``, ``"l2"``,
            ``"l3"`` or ``"l4"``).  Used by pipeline specs and by the
            disjointness analysis to group fields.
    """

    name: str
    width: int
    layer: str

    @property
    def full_mask(self) -> int:
        """The all-ones mask for this field."""
        return (1 << self.width) - 1

    def validate_value(self, value: int) -> int:
        """Return ``value`` after checking it fits in the field width."""
        if not 0 <= value <= self.full_mask:
            raise ValueError(
                f"value {value:#x} does not fit field {self.name!r} "
                f"({self.width} bits)"
            )
        return value


class FieldSchema:
    """An ordered, immutable collection of :class:`Field` objects.

    A schema assigns every field an index; :class:`~repro.flow.key.FlowKey`
    and :class:`~repro.flow.wildcard.Wildcard` are tuples indexed by the
    positions of :data:`DEFAULT_SCHEMA`, the only schema the program
    builds.

    A schema also fixes the *packed* form of a header vector: the fields
    concatenated into one integer, first field in the most significant
    bits (``shifts[i]`` is field ``i``'s offset from bit 0;
    :data:`DEFAULT_SCHEMA` is 244 bits wide).  Per-field AND / OR /
    compare on tuples and one AND / OR / compare on packed integers are
    the same operation, which is what the classifier and the wildcard
    algebra run on.

    Attributes (plain, read-only by convention):
        fields: The fields, in order.
        full_masks: Per-field all-ones masks, in schema order.
        zero_tuple: An all-zero tuple of the schema's arity (a blank
            mask).
        shifts: Per-field bit offset inside a packed header vector.
        field_masks: Per-field all-ones masks at their packed position.
        full_packed: The packed vector with every bit of every field
            set.
    """

    def __init__(self, fields: Iterable[Field]):
        self.fields: Tuple[Field, ...] = tuple(fields)
        if not self.fields:
            raise ValueError("a schema needs at least one field")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in schema: {names}")
        self._index: Dict[str, int] = {f.name: i for i, f in enumerate(self.fields)}
        self.full_masks: Tuple[int, ...] = tuple(f.full_mask for f in self.fields)
        self.zero_tuple: Tuple[int, ...] = (0,) * len(self.fields)
        widths = [f.width for f in self.fields]
        self.shifts: Tuple[int, ...] = tuple(
            sum(widths[i + 1:]) for i in range(len(widths))
        )
        self.field_masks: Tuple[int, ...] = tuple(
            full << shift
            for full, shift in zip(self.full_masks, self.shifts)
        )
        self.full_packed: int = (1 << sum(widths)) - 1
        self._field_bits: Dict[int, int] = {}

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __getitem__(self, index: int) -> Field:
        return self.fields[index]

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldSchema):
            return NotImplemented
        return self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        return f"FieldSchema({[f.name for f in self.fields]})"

    # -- lookups -------------------------------------------------------------

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    # -- packed form ---------------------------------------------------------

    def pack(self, values: Iterable[int]) -> int:
        """Concatenate per-field values (each already within its field's
        width) into one integer."""
        packed = 0
        for value, shift in zip(values, self.shifts):
            packed |= value << shift
        return packed

    def unpack(self, packed: int) -> Tuple[int, ...]:
        """Split a packed vector back into per-field values."""
        return tuple(
            (packed >> shift) & full
            for shift, full in zip(self.shifts, self.full_masks)
        )

    def field_bits(self, packed: int) -> int:
        """Which fields a packed vector has any bit in, as a bitset
        (bit ``i`` = field ``i``).  A run's dependency wildcards repeat
        a few hundred masks, so the answer is remembered per mask."""
        cache = self._field_bits
        bits = cache.get(packed)
        if bits is None:
            if len(cache) >= FIELD_BITS_MEMO_SIZE:
                cache.clear()
            bits = 0
            for index, field_mask in enumerate(self.field_masks):
                if packed & field_mask:
                    bits |= 1 << index
            cache[packed] = bits
        return bits

    def index_of(self, name: str) -> int:
        """Return the positional index of field ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown field {name!r}; schema has {self.names}") from None

    def field(self, name: str) -> Field:
        return self.fields[self.index_of(name)]


#: The ten ternary header fields of the paper's LTM table (Fig. 6).  The
#: exact-match table tag is metadata, carried separately by the LTM machinery.
DEFAULT_FIELDS: Tuple[Field, ...] = (
    Field("in_port", 16, "port"),
    Field("eth_src", 48, "l2"),
    Field("eth_dst", 48, "l2"),
    Field("eth_type", 16, "l2"),
    Field("vlan_id", 12, "l2"),
    Field("ip_src", 32, "l3"),
    Field("ip_dst", 32, "l3"),
    Field("ip_proto", 8, "l3"),
    Field("tp_src", 16, "l4"),
    Field("tp_dst", 16, "l4"),
)

#: The one header layout: every key, mask and classifier is laid out
#: by it.
DEFAULT_SCHEMA = FieldSchema(DEFAULT_FIELDS)


def ip(dotted: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer.

    >>> ip("192.168.0.1")
    3232235521
    """
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad octet {part!r} in {dotted!r}")
        value = (value << 8) | octet
    return value


def prefix_mask(prefix_len: int, width: int = 32) -> int:
    """Return the mask of a ``prefix_len``-bit prefix in a ``width``-bit field.

    >>> hex(prefix_mask(24))
    '0xffffff00'
    """
    if not 0 <= prefix_len <= width:
        raise ValueError(f"prefix length {prefix_len} out of range for width {width}")
    if prefix_len == 0:
        return 0
    return ((1 << prefix_len) - 1) << (width - prefix_len)
