"""Prefix index for OVS-style IP unwildcarding.

Open vSwitch keeps a binary trie of all IP prefixes installed in a
classifier so that, after a lookup, it can compute the *minimal* number of
address bits that distinguish the looked-up packet from every other prefix
in the table.  Those bits are added to the Megaflow wildcard; the paper
reuses the same mechanism for Gigaflow entries (§4.2.3 — the
``192.168.21.27 → 255.255.240.0`` example).

Without it, a cache entry would have to un-wildcard the *entire*
address whenever any more-specific prefix exists, destroying the sharing
Gigaflow relies on.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional


class PrefixTrie:
    """The prefixes of one fixed-width field, reference-counted
    (classifiers add one entry per rule), answering OVS's ``trie_lookup``
    question: how many leading bits must be un-wildcarded to pin down a
    value's relationship to every stored prefix.

    No trie is kept.  A prefix is the integer ``padded value << length
    bits | prefix length``, the prefixes are one sorted list, and the trie
    walk's answer is read off the query's two neighbours in it
    (:meth:`unwildcard_bits`).  The §4.2.3 example:

    >>> index = PrefixTrie()
    >>> index.insert(0xC0A81000, 20)  # 192.168.16.0/20
    >>> index.insert(0xC0A80000, 16)  # 192.168.0.0/16
    >>> index.unwildcard_bits(0xC0A8151B)  # 192.168.21.27
    20
    >>> hex(index.mask_for(0xC0A8151B))
    '0xfffff000'

    Insert and remove shift the tail of the list (a ``memmove``): cheaper
    than a per-bit node walk up to roughly 100K distinct prefixes, and the
    paper's scale puts at most 8K rules in one table.
    """

    def __init__(self, width: int = 32):
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.width = width
        #: A key's low bits hold the prefix length (0..width).
        self._length_bits = width.bit_length()
        #: Distinct keys, ascending: by address, then by length.
        self._keys: List[int] = []
        #: Key -> number of rules carrying that prefix.
        self._rules: Dict[int, int] = {}

    def __len__(self) -> int:
        return sum(self._rules.values())

    # -- mutation ---------------------------------------------------------------

    def insert(self, value: int, prefix_len: int) -> None:
        """Add one rule with the given prefix."""
        key = self._key(value, prefix_len)
        count = self._rules.get(key, 0)
        if not count:
            insort(self._keys, key)
        self._rules[key] = count + 1

    def remove(self, value: int, prefix_len: int) -> None:
        """Remove one rule with the given prefix (must exist)."""
        key = self._key(value, prefix_len)
        remaining = self._rules.get(key, 0) - 1
        if remaining < 0:
            raise KeyError(f"prefix {value:#x}/{prefix_len} not in trie")
        if remaining:
            self._rules[key] = remaining
        else:
            del self._rules[key]
            del self._keys[bisect_left(self._keys, key)]

    # -- queries -----------------------------------------------------------------

    def unwildcard_bits(self, value: int) -> int:
        """Number of leading bits of ``value`` that must be matched so that
        any packet sharing them has the same relationship (match/miss) to
        every stored prefix.

        A stored prefix of ``value`` requires its own length (to preserve
        the match); one that leaves ``value`` after ``c`` common bits
        requires ``c + 1`` (to preserve the divergence).  The maximum is
        attained at a sorted neighbour of ``value``: no other prefix shares
        more bits with it than the neighbour on its side, and a prefix of
        ``value`` longer than the predecessor would sort after it.
        """
        keys = self._keys
        width = self.width
        length_bits = self._length_bits
        length_mask = (1 << length_bits) - 1
        # Past every prefix whose padded value is ``value`` itself.
        after = bisect_right(keys, (value << length_bits) | length_mask)
        needed = 0
        if after:
            key = keys[after - 1]
            length = key & length_mask
            common = width - (value ^ (key >> length_bits)).bit_length()
            needed = length if common >= length else common + 1
        if after < len(keys):
            # Greater than ``value``, so never a prefix of it.
            common = width - (value ^ (keys[after] >> length_bits)).bit_length()
            if common >= needed:
                needed = common + 1
        return needed

    def mask_for(self, value: int) -> int:
        """The distinguishing bits as a field mask (leading-ones form)."""
        bits = self.unwildcard_bits(value)
        return ((1 << bits) - 1) << (self.width - bits)

    # -- internals -----------------------------------------------------------------

    def _key(self, value: int, prefix_len: int) -> int:
        """A prefix's sort key; bits below ``prefix_len`` are no part of
        its identity."""
        if not 0 <= prefix_len <= self.width:
            raise ValueError(
                f"prefix length {prefix_len} out of range 0..{self.width}"
            )
        if value >> self.width:
            raise ValueError(f"value {value:#x} wider than {self.width} bits")
        host_bits = self.width - prefix_len
        padded = value >> host_bits << host_bits
        return (padded << self._length_bits) | prefix_len


def mask_to_prefix_len(mask: int, width: int) -> Optional[int]:
    """Return the prefix length when ``mask`` is a leading-ones prefix mask
    over ``width`` bits, else ``None`` (non-prefix ternary mask)."""
    # A prefix mask's complement is a run of trailing ones, and only for
    # such a run does adding one clear every bit of it.
    inverse = ~mask & ((1 << width) - 1)
    if inverse & (inverse + 1):
        return None
    return width - inverse.bit_length()
