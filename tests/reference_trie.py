"""The per-bit binary prefix trie, kept as the reference oracle.

This is ``repro.classify.trie.PrefixTrie`` as it stood before it became
a sorted prefix index, verbatim: one node per address bit, one loop
iteration per bit on every insert, remove and query.  It is the OVS
``trie_lookup`` walk spelled out, so it is what the index must agree
with; ``tests/test_trie.py`` drives both through arbitrary
insert / remove / query interleavings.  Not used by ``src/``.
"""

from __future__ import annotations

from typing import List, Optional


class _TrieNode:
    __slots__ = ("children", "rule_count")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode"]] = [None, None]
        # Number of rules whose prefix ends exactly at this node.
        self.rule_count = 0


class PrefixTrie:
    """A binary trie over fixed-width field prefixes.

    Supports reference-counted insert/remove (classifiers add one entry per
    rule) and the OVS ``trie_lookup``-style computation of how many leading
    bits must be un-wildcarded to pin down a value's relationship to every
    stored prefix.
    """

    def __init__(self, width: int = 32):
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.width = width
        self._root = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- mutation ---------------------------------------------------------------

    def insert(self, value: int, prefix_len: int) -> None:
        """Add one rule with the given prefix."""
        self._check(value, prefix_len)
        node = self._root
        for depth in range(prefix_len):
            bit = (value >> (self.width - 1 - depth)) & 1
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]
        node.rule_count += 1
        self._size += 1

    def remove(self, value: int, prefix_len: int) -> None:
        """Remove one rule with the given prefix (must exist)."""
        self._check(value, prefix_len)
        path = [self._root]
        node = self._root
        for depth in range(prefix_len):
            bit = (value >> (self.width - 1 - depth)) & 1
            node = node.children[bit]
            if node is None:
                raise KeyError(
                    f"prefix {value:#x}/{prefix_len} not in trie"
                )
            path.append(node)
        if node.rule_count <= 0:
            raise KeyError(f"prefix {value:#x}/{prefix_len} not in trie")
        node.rule_count -= 1
        self._size -= 1
        # Prune now-empty leaf chains.
        for depth in range(prefix_len, 0, -1):
            child = path[depth]
            if child.rule_count or any(child.children):
                break
            bit = (value >> (self.width - depth)) & 1
            path[depth - 1].children[bit] = None

    # -- queries -----------------------------------------------------------------

    def unwildcard_bits(self, value: int) -> int:
        """Number of leading bits of ``value`` that must be matched so that
        any packet sharing them has the same relationship (match/miss) to
        every prefix stored in the trie.

        Walk the trie along ``value``.  Passing a node that terminates a
        prefix requires that many bits (to preserve the match).  Seeing a
        sibling branch at depth ``d`` requires ``d + 1`` bits (to preserve
        the divergence).  The answer is the maximum over the walk.
        """
        node = self._root
        needed = 0
        for depth in range(self.width):
            if node.rule_count:
                needed = depth
            bit = (value >> (self.width - 1 - depth)) & 1
            if node.children[1 - bit] is not None:
                needed = depth + 1
            nxt = node.children[bit]
            if nxt is None:
                return needed
            node = nxt
        if node.rule_count:
            needed = self.width
        return needed

    def mask_for(self, value: int) -> int:
        """The distinguishing bits as a field mask (leading-ones form)."""
        bits = self.unwildcard_bits(value)
        if bits == 0:
            return 0
        return ((1 << bits) - 1) << (self.width - bits)

    # -- internals -----------------------------------------------------------------

    def _check(self, value: int, prefix_len: int) -> None:
        if not 0 <= prefix_len <= self.width:
            raise ValueError(
                f"prefix length {prefix_len} out of range 0..{self.width}"
            )
        if value >> self.width:
            raise ValueError(f"value {value:#x} wider than {self.width} bits")
