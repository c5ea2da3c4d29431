"""Property-based tests (hypothesis) for core data structures and invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.classify import PrefixTrie, TupleSpaceClassifier
from repro.classify.trie import mask_to_prefix_len
from repro.flow import (
    ActionList,
    DEFAULT_SCHEMA,
    FlowKey,
    Output,
    TernaryMatch,
    Wildcard,
)
from repro.pipeline import PipelineRule

# -- strategies ---------------------------------------------------------------

field_widths = [f.width for f in DEFAULT_SCHEMA]


@st.composite
def flow_keys(draw):
    values = [
        draw(st.integers(0, (1 << width) - 1)) for width in field_widths
    ]
    return FlowKey(values)


@st.composite
def wildcards(draw):
    masks = [
        draw(st.integers(0, (1 << width) - 1)) for width in field_widths
    ]
    return Wildcard(masks)


@st.composite
def matches(draw):
    return TernaryMatch(draw(flow_keys()), draw(wildcards()))


@st.composite
def ip_prefixes(draw):
    plen = draw(st.integers(0, 32))
    value = draw(st.integers(0, (1 << 32) - 1))
    if plen:
        value &= ((1 << plen) - 1) << (32 - plen)
    else:
        value = 0
    return value, plen


# -- packed header vectors ----------------------------------------------------------

@st.composite
def vectors(draw, count=1):
    """``count`` in-range value vectors over the header layout; every
    field is drawn from {0, full mask, anything} so the edges always
    occur."""
    return tuple(
        tuple(
            draw(st.sampled_from([0, full]) | st.integers(0, full))
            for full in DEFAULT_SCHEMA.full_masks
        )
        for _ in range(count)
    )


class TestPackedLayout:
    def test_default_schema_is_244_bits_msb_first(self):
        assert DEFAULT_SCHEMA.full_packed == (1 << 244) - 1
        assert DEFAULT_SCHEMA.shifts[0] == 244 - 16
        assert DEFAULT_SCHEMA.shifts[-1] == 0

    @given(vectors())
    def test_pack_unpack_round_trip(self, drawn):
        (values,) = drawn
        packed = DEFAULT_SCHEMA.pack(values)
        assert 0 <= packed <= DEFAULT_SCHEMA.full_packed
        assert DEFAULT_SCHEMA.unpack(packed) == values

    @given(st.data())
    def test_one_field_never_bleeds_into_a_neighbour(self, data):
        schema = DEFAULT_SCHEMA
        index = data.draw(st.integers(0, len(schema) - 1))
        full = schema.full_masks[index]
        values = [0] * len(schema)
        values[index] = full
        assert schema.pack(values) == schema.field_masks[index]
        inverse = [m if i != index else 0
                   for i, m in enumerate(schema.full_masks)]
        assert schema.pack(inverse) == (
            schema.full_packed ^ schema.field_masks[index]
        )

    @given(vectors(), st.data())
    def test_set_field_keeps_packed_in_step(self, drawn, data):
        (values,) = drawn
        schema = DEFAULT_SCHEMA
        index = data.draw(st.integers(0, len(schema) - 1))
        full = schema.full_masks[index]
        new = data.draw(st.sampled_from([0, full]) | st.integers(0, full))
        key = FlowKey(values).with_fields([(index, new)])
        expected = values[:index] + (new,) + values[index + 1:]
        assert key.values == expected
        assert key.packed == schema.pack(expected)
        assert key == FlowKey(expected)
        assert hash(key) == hash(FlowKey(expected))

    @given(vectors(count=2))
    def test_wildcard_algebra_equals_the_per_field_loops(self, drawn):
        """The tuple implementation this replaced, kept as the reference."""
        a, b = drawn
        wa, wb = Wildcard(a), Wildcard(b)
        pairs = list(zip(a, b))
        assert wa.union(wb).masks == tuple(x | y for x, y in pairs)
        assert wa.intersection(wb).masks == tuple(x & y for x, y in pairs)
        assert wa.covers(wb) == all((x & y) == y for x, y in pairs)
        assert wa.is_disjoint(wb) == all(not (x and y) for x, y in pairs)
        assert wa.bit_count() == sum(bin(x).count("1") for x in a)
        assert Wildcard.from_packed(wa.packed) == wa
        assert hash(Wildcard.from_packed(wa.packed)) == hash(wa)

    @given(vectors(count=5))
    def test_match_predicates_equal_the_per_field_loops(self, drawn):
        va, ma, vb, mb, flow = drawn
        a = TernaryMatch(FlowKey(va), Wildcard(ma))
        b = TernaryMatch(FlowKey(vb), Wildcard(mb))
        assert a.canonical_key == tuple(v & m for v, m in zip(va, ma))
        assert a.matches(FlowKey(flow)) == all(
            (f & m) == (v & m) for f, v, m in zip(flow, va, ma)
        )
        assert a.overlaps(b) == all(
            (x & m & n) == (y & m & n)
            for x, y, m, n in zip(va, vb, ma, mb)
        )
        assert a.subsumes(b) == all(
            not (m & ~n) and (y & n & m) == (x & m)
            for x, y, m, n in zip(va, vb, ma, mb)
        )

    def test_from_packed_rejects_out_of_range(self):
        for bad in (-1, DEFAULT_SCHEMA.full_packed + 1):
            with pytest.raises(ValueError, match="does not fit"):
                Wildcard.from_packed(bad)

    @given(st.integers(1, 64), st.data())
    def test_mask_to_prefix_len_equals_the_bit_loop(self, width, data):
        full = (1 << width) - 1
        plen = data.draw(st.integers(0, width))
        prefix = full ^ ((1 << (width - plen)) - 1)
        mask = data.draw(st.sampled_from([prefix]) | st.integers(0, full))
        bits = format(mask, f"0{width}b")
        ones = bits.rstrip("0")
        expected = len(ones) if "0" not in ones else None
        assert mask_to_prefix_len(mask, width) == expected


# -- wildcard algebra -----------------------------------------------------------


class TestWildcardAlgebra:
    @given(wildcards(), wildcards())
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(wildcards(), wildcards(), wildcards())
    def test_union_associative(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(wildcards())
    def test_union_idempotent(self, a):
        assert a.union(a) == a

    @given(wildcards(), wildcards())
    def test_union_covers_operands(self, a, b):
        union = a.union(b)
        assert union.covers(a)
        assert union.covers(b)

    @given(wildcards(), wildcards())
    def test_intersection_covered_by_operands(self, a, b):
        inter = a.intersection(b)
        assert a.covers(inter)
        assert b.covers(inter)

    @given(wildcards(), wildcards())
    def test_disjoint_symmetric(self, a, b):
        assert a.is_disjoint(b) == b.is_disjoint(a)

    @given(wildcards())
    def test_empty_disjoint_with_anything(self, a):
        assert Wildcard.from_packed(0).is_disjoint(a)

    @given(wildcards())
    def test_bit_count_bounds(self, a):
        assert 0 <= a.bit_count() <= sum(field_widths)


# -- match semantics ---------------------------------------------------------------


class TestMatchSemantics:
    @given(flow_keys(), wildcards())
    def test_flow_matches_its_own_projection(self, flow, wildcard):
        match = TernaryMatch(flow, wildcard)
        assert match.matches(flow)

    @given(flow_keys(), flow_keys(), wildcards())
    def test_match_ignores_unmasked_bits(self, a, b, wildcard):
        match = TernaryMatch(a, wildcard)
        blended_values = [
            (av & mask) | (bv & ~mask & ((1 << width) - 1))
            for av, bv, mask, width in zip(
                a.values, b.values, wildcard.masks, field_widths
            )
        ]
        blended = FlowKey(blended_values)
        assert match.matches(blended)

    @given(matches(), matches())
    def test_subsumption_implies_overlap(self, a, b):
        if a.subsumes(b):
            assert a.overlaps(b)

    @given(matches())
    def test_overlap_reflexive(self, a):
        assert a.overlaps(a)
        assert a.subsumes(a)

    @given(matches(), matches())
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)


# -- prefix trie ---------------------------------------------------------------------


class TestTrieProperties:
    @given(st.lists(ip_prefixes(), min_size=1, max_size=30),
           st.integers(0, (1 << 32) - 1))
    @settings(max_examples=60)
    def test_unwildcard_bits_are_sufficient(self, prefixes, value):
        """Any value agreeing on the returned bits has the same match/miss
        relationship to every stored prefix."""
        trie = PrefixTrie()
        for pvalue, plen in prefixes:
            trie.insert(pvalue, plen)
        bits = trie.unwildcard_bits(value)
        mask = ((1 << bits) - 1) << (32 - bits) if bits else 0

        def relationship(v):
            out = []
            for pvalue, plen in prefixes:
                pmask = ((1 << plen) - 1) << (32 - plen) if plen else 0
                out.append((v & pmask) == pvalue)
            return out

        # Flip every bit outside the mask in turn.
        for bit in range(32):
            flip = 1 << bit
            if mask & flip:
                continue
            assert relationship(value ^ flip) == relationship(value)

    @given(st.lists(ip_prefixes(), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_insert_remove_round_trip(self, prefixes):
        trie = PrefixTrie()
        for value, plen in prefixes:
            trie.insert(value, plen)
        for value, plen in prefixes:
            trie.remove(value, plen)
        assert len(trie) == 0
        assert trie.unwildcard_bits(0) == 0


# -- TSS classifier ---------------------------------------------------------------------


@st.composite
def simple_rules(draw):
    """Rules over a small value domain to force overlaps."""
    plen = draw(st.sampled_from([0, 8, 16, 24, 32]))
    ip_value = draw(st.integers(0, 3)) << 24 | draw(st.integers(0, 3)) << 8
    if plen:
        ip_value &= ((1 << plen) - 1) << (32 - plen)
    else:
        ip_value = 0
    port = draw(st.integers(0, 3))
    port_exact = draw(st.booleans())
    match = TernaryMatch.from_fields(
        {"ip_dst": ip_value, "tp_dst": port},
        masks={
            "ip_dst": ((1 << plen) - 1) << (32 - plen) if plen else 0,
            "tp_dst": 0xFFFF if port_exact else 0,
        },
    )
    return PipelineRule(
        match=match,
        priority=draw(st.integers(1, 20)),
        actions=ActionList([Output(1)]),
    )


def _linear_scan_winner(resident, probe):
    """The rule a linear scan picks: highest priority; among equals the
    one whose mask group TSS probes first (groups order by best resident
    priority, then age), then the oldest rule.

    ``resident`` maps a packed mask to ``(group age, rules)`` and mirrors
    the classifier's group lifetime: a group dies with its last rule.
    """
    best, best_key = None, None
    for age, rules in resident.values():
        group_priority = max(r.priority for r in rules)
        for rule in rules:
            if not rule.match.matches(probe):
                continue
            key = (-rule.priority, -group_priority, age, rule.rule_id)
            if best_key is None or key < best_key:
                best, best_key = rule, key
    return best


class TestTssProperties:
    @given(st.lists(simple_rules(), min_size=1, max_size=40),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_tss_agrees_with_linear_scan(self, rules, data):
        """Inserts, removals and lookups interleaved; every lookup must
        return exactly the linear-scan winner, ties included."""
        classifier = TupleSpaceClassifier()
        resident = {}
        ages = iter(range(len(rules)))
        for rule in rules:
            classifier.insert(rule)
            mask = rule.match.wildcard.packed
            if mask not in resident:
                resident[mask] = (next(ages), [])
            resident[mask][1].append(rule)
            if data.draw(st.integers(0, 3)) == 0:
                mask = data.draw(st.sampled_from(sorted(resident)))
                group_rules = resident[mask][1]
                victim = group_rules.pop(
                    data.draw(st.integers(0, len(group_rules) - 1))
                )
                if not group_rules:
                    del resident[mask]
                classifier.remove(victim)
            probe = FlowKey.from_fields({
                "ip_dst": data.draw(st.integers(0, 3)) << 24
                | data.draw(st.integers(0, 3)) << 8,
                "tp_dst": data.draw(st.integers(0, 3)),
            })
            assert classifier.climb(probe.packed)[0] is _linear_scan_winner(
                resident, probe
            )
        assert len(classifier) == sum(
            len(group_rules) for _, group_rules in resident.values()
        )

    @given(st.lists(simple_rules(), min_size=1, max_size=40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unwildcard_invariant(self, rules, data):
        """The cache-correctness invariant: any flow equal on the returned
        wildcard bits resolves to the same rule."""
        classifier = TupleSpaceClassifier()
        for rule in rules:
            classifier.insert(rule)
        probe = FlowKey.from_fields({
            "ip_dst": data.draw(st.integers(0, 3)) << 24,
            "tp_dst": data.draw(st.integers(0, 3)),
        })
        result = classifier.lookup(probe)
        # Build a perturbed flow: flip free bits of ip_dst/tp_dst.
        wc = result.wildcard
        ip_index = DEFAULT_SCHEMA.index_of("ip_dst")
        tp_index = DEFAULT_SCHEMA.index_of("tp_dst")
        free_ip = ~wc.masks[ip_index] & 0xFFFFFFFF
        free_tp = ~wc.masks[tp_index] & 0xFFFF
        perturbed = FlowKey.from_fields({
            "ip_dst": probe.get("ip_dst") ^ (free_ip & 0x0101_0101),
            "tp_dst": probe.get("tp_dst") ^ (free_tp & 0x3),
        })
        other, _ = classifier.climb(perturbed.packed)
        if result.rule is None:
            assert other is None
        else:
            assert other is result.rule
