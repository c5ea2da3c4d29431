"""Unit tests for the prefix index (OVS-style IP unwildcarding), and its
differential against the per-bit trie it replaced."""

import hypothesis.strategies as st
import pytest
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.classify.trie import PrefixTrie, mask_to_prefix_len
from repro.flow import ip, prefix_mask
from conftest import DIFFERENTIAL
from reference_trie import PrefixTrie as ReferenceTrie


class TestInsertRemove:
    def test_len_tracks_rules(self):
        trie = PrefixTrie()
        trie.insert(ip("10.0.0.0"), 8)
        trie.insert(ip("10.0.0.0"), 8)  # refcount
        trie.insert(ip("10.1.0.0"), 16)
        assert len(trie) == 3
        trie.remove(ip("10.0.0.0"), 8)
        assert len(trie) == 2

    def test_remove_missing_raises(self):
        trie = PrefixTrie()
        with pytest.raises(KeyError):
            trie.remove(ip("10.0.0.0"), 8)

    def test_remove_prunes_and_reinserts(self):
        trie = PrefixTrie()
        trie.insert(ip("10.0.0.0"), 24)
        trie.remove(ip("10.0.0.0"), 24)
        assert trie.unwildcard_bits(ip("10.0.0.1")) == 0
        trie.insert(ip("10.0.0.0"), 24)
        assert trie.unwildcard_bits(ip("10.0.0.1")) == 24

    def test_bounds_checked(self):
        trie = PrefixTrie()
        with pytest.raises(ValueError):
            trie.insert(0, 33)
        with pytest.raises(ValueError):
            trie.insert(1 << 32, 8)


class TestUnwildcard:
    def test_empty_trie_needs_no_bits(self):
        assert PrefixTrie().unwildcard_bits(ip("1.2.3.4")) == 0

    def test_matching_prefix_needs_its_length(self):
        trie = PrefixTrie()
        trie.insert(ip("10.0.0.0"), 8)
        assert trie.unwildcard_bits(ip("10.9.9.9")) == 8

    def test_diverging_value_needs_divergence_depth(self):
        trie = PrefixTrie()
        trie.insert(ip("10.0.0.0"), 8)  # 00001010...
        # 11.x diverges from 10.x at bit 7 (depth 7) -> needs 8 bits.
        assert trie.unwildcard_bits(ip("11.0.0.1")) == 8
        # 128.x diverges at the first bit -> 1 bit suffices.
        assert trie.unwildcard_bits(ip("128.0.0.1")) == 1

    def test_paper_example_from_section_423(self):
        """§4.2.3: packet 192.168.21.27 against prefixes /32, /24, /16, /8
        must un-wildcard exactly 20 bits (mask 255.255.240.0)."""
        trie = PrefixTrie()
        trie.insert(ip("192.168.14.15"), 32)
        trie.insert(ip("192.168.14.0"), 24)
        trie.insert(ip("192.168.0.0"), 16)
        trie.insert(ip("192.0.0.0"), 8)
        assert trie.unwildcard_bits(ip("192.168.21.27")) == 20
        assert trie.mask_for(ip("192.168.21.27")) == ip("255.255.240.0")

    def test_exact_host_prefix(self):
        trie = PrefixTrie()
        trie.insert(ip("10.0.0.1"), 32)
        assert trie.unwildcard_bits(ip("10.0.0.1")) == 32
        # A neighbour differing in the last bit needs all 32 bits too.
        assert trie.unwildcard_bits(ip("10.0.0.0")) == 32

    def test_mask_for_zero_bits(self):
        assert PrefixTrie().mask_for(ip("1.1.1.1")) == 0

    def test_non_ip_width(self):
        trie = PrefixTrie(width=16)
        trie.insert(0x8000, 1)
        assert trie.unwildcard_bits(0x8123) == 1
        assert trie.unwildcard_bits(0x0123) == 1


class TestMaskToPrefixLen:
    def test_prefix_masks(self):
        assert mask_to_prefix_len(0, 32) == 0
        assert mask_to_prefix_len(prefix_mask(24), 32) == 24
        assert mask_to_prefix_len(prefix_mask(32), 32) == 32
        assert mask_to_prefix_len(0xFFFF, 16) == 16

    def test_non_prefix_masks(self):
        assert mask_to_prefix_len(0x00FF, 16) is None
        assert mask_to_prefix_len(0xFF00FF00, 32) is None
        assert mask_to_prefix_len(0b0101, 4) is None


def both(width, prefixes):
    index, trie = PrefixTrie(width), ReferenceTrie(width)
    for value, prefix_len in prefixes:
        index.insert(value, prefix_len)
        trie.insert(value, prefix_len)
    return index, trie


class TestNeighboursSuffice:
    """The two places a two-neighbour answer could go wrong."""

    def test_prefix_of_value_further_left_than_the_predecessor(self):
        value = 0b1011_0111
        # Sorted: /1 and /4 (both prefixes of the value), then the /8 host
        # one below it — the predecessor, which is not a prefix and shares
        # 7 bits.  The prefixes further left ask for 1 and 4 bits only.
        index, trie = both(8, [(0b1000_0000, 1), (0b1011_0000, 4), (0b1011_0110, 8)])
        assert index.unwildcard_bits(value) == trie.unwildcard_bits(value) == 8
        # Predecessor a short prefix of the value, a longer prefix of the
        # value cannot hide to its left: equal address sorts by length.
        index, trie = both(8, [(0b1000_0000, 1), (0b1000_0000, 3), (0b1000_0000, 2)])
        assert index.unwildcard_bits(0b1001_1111) == 3
        assert trie.unwildcard_bits(0b1001_1111) == 3
        # Predecessor diverges early; the /1 further left is satisfied by it.
        index, trie = both(8, [(0b1000_0000, 1), (0b1010_0000, 4)])
        assert index.unwildcard_bits(value) == trie.unwildcard_bits(value) == 4

    def test_successor_shares_more_bits_than_the_predecessor(self):
        value = 0b0111_1110
        # Predecessor 01/2 is a prefix (asks for 2); the successor is the
        # host one above the value and diverges only at the last bit.
        index, trie = both(8, [(0b0100_0000, 2), (0b0111_1111, 8)])
        assert index.unwildcard_bits(value) == trie.unwildcard_bits(value) == 8
        assert index.mask_for(value) == trie.mask_for(value) == 0xFF
        # No predecessor at all.
        index, trie = both(8, [(0b0111_1111, 8)])
        assert index.unwildcard_bits(value) == trie.unwildcard_bits(value) == 8


class IndexAgainstTrie(RuleBasedStateMachine):
    """Any interleaving of insert / remove / query leaves the sorted index
    and the per-bit trie indistinguishable."""

    @initialize(width=st.integers(1, 48))
    def build(self, width):
        self.width = width
        self.index = PrefixTrie(width)
        self.trie = ReferenceTrie(width)
        self.stored = []

    def draw_prefix(self, data):
        value = data.draw(st.integers(0, (1 << self.width) - 1), label="value")
        prefix_len = data.draw(
            st.sampled_from([0, self.width]) | st.integers(0, self.width),
            label="prefix_len",
        )
        return value, prefix_len

    def same_prefix_other_host_bits(self, data, value, prefix_len):
        host_bits = self.width - prefix_len
        noise = data.draw(st.integers(0, (1 << host_bits) - 1), label="host bits")
        return (value >> host_bits << host_bits) | noise

    @rule(data=st.data())
    def insert(self, data):
        value, prefix_len = self.draw_prefix(data)
        self.index.insert(value, prefix_len)
        self.trie.insert(value, prefix_len)
        self.stored.append((value, prefix_len))

    @precondition(lambda self: self.stored)
    @rule(data=st.data())
    def insert_duplicate(self, data):
        value, prefix_len = data.draw(st.sampled_from(self.stored))
        value = self.same_prefix_other_host_bits(data, value, prefix_len)
        self.index.insert(value, prefix_len)
        self.trie.insert(value, prefix_len)
        self.stored.append((value, prefix_len))

    @precondition(lambda self: self.stored)
    @rule(data=st.data())
    def remove_stored(self, data):
        position = data.draw(st.integers(0, len(self.stored) - 1))
        value, prefix_len = self.stored.pop(position)
        value = self.same_prefix_other_host_bits(data, value, prefix_len)
        self.index.remove(value, prefix_len)
        self.trie.remove(value, prefix_len)

    @rule(data=st.data())
    def remove_arbitrary(self, data):
        """Usually missing: ``KeyError`` from both, nothing changed (the
        invariant re-checks every probe)."""
        value, prefix_len = self.draw_prefix(data)
        outcomes = []
        for structure in (self.index, self.trie):
            try:
                structure.remove(value, prefix_len)
                outcomes.append("removed")
            except KeyError:
                outcomes.append("missing")
        assert outcomes[0] == outcomes[1]
        if outcomes[0] == "removed":
            host_bits = self.width - prefix_len
            self.stored.remove(
                next(
                    (v, length)
                    for v, length in self.stored
                    if length == prefix_len
                    and v >> host_bits == value >> host_bits
                )
            )

    @rule(data=st.data())
    def query(self, data):
        value = data.draw(st.integers(0, (1 << self.width) - 1), label="query")
        assert self.index.unwildcard_bits(value) == self.trie.unwildcard_bits(value)
        assert self.index.mask_for(value) == self.trie.mask_for(value)

    @invariant()
    def indistinguishable(self):
        assert len(self.index) == len(self.trie) == len(self.stored)
        full = (1 << self.width) - 1
        probes = {0, full}
        for value, _ in self.stored:
            probes.update((value, value ^ 1, value ^ full, max(value - 1, 0)))
        for value in probes:
            assert (
                self.index.unwildcard_bits(value)
                == self.trie.unwildcard_bits(value)
            ), value
            assert self.index.mask_for(value) == self.trie.mask_for(value), value


IndexAgainstTrie.TestCase.settings = DIFFERENTIAL
TestIndexAgainstTrie = IndexAgainstTrie.TestCase
