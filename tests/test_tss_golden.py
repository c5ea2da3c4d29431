"""Differential golden for the packed-integer TSS classifier.

``tests/golden/tss_lookup.json`` was written by this file's
``__main__`` on commit ``e0a9c36`` — the last one whose
``classify/tss.py`` probed with per-field tuples.  That code is gone,
so this recording is the only differential left: the classifier must
reproduce the winning rule, the un-wildcarded masks and the probe
count of every lookup of a seeded insert / remove / lookup
interleaving, exactly.

The script mixes everything probe order and un-wildcarding depend on:
prefix-shaped and ternary IP masks (only the former go through the
prefix tries), masks spanning one to four stage layers, and priorities
drawn from five values so that equal-priority ties occur both inside a
group and across groups.

The recording also holds an ``unstaged`` section, from the classifier's
former ``staged=False`` mode; every classifier is staged now, so only
the ``staged`` section is replayed.
"""

import json
import random
from pathlib import Path

import pytest

from repro.classify import TupleSpaceClassifier
from repro.flow import FlowKey, TernaryMatch, prefix_mask

GOLDEN = Path(__file__).parent / "golden" / "tss_lookup.json"
SEED = 20250928
STEPS = 1100

#: Mask templates, ``{field: mask}``; ``None`` = the field's full mask.
MASK_TEMPLATES = (
    {"in_port": None},
    {"eth_dst": None},
    {"eth_type": None, "vlan_id": 0xFF0},
    {"ip_dst": prefix_mask(8)},
    {"ip_dst": prefix_mask(16)},
    {"ip_dst": prefix_mask(24)},
    {"ip_dst": None},
    {"ip_src": prefix_mask(12), "ip_dst": prefix_mask(20)},
    {"ip_dst": 0xFF00FF00},  # ternary: never enters the trie
    {"ip_src": 0x0000FFFF, "ip_proto": None},
    {"in_port": None, "ip_dst": prefix_mask(16)},
    {"in_port": None, "eth_dst": None, "ip_src": prefix_mask(24),
     "tp_dst": None},
    {"ip_proto": None, "tp_dst": None},
    {"tp_src": 0xFF00, "tp_dst": None},
    {"eth_src": 0xFFFFFF000000, "ip_dst": prefix_mask(28), "tp_src": None},
    {},  # catch-all
)

#: Small per-field value pools, so that rules and flows collide often.
VALUE_POOLS = {
    "in_port": (1, 2, 3),
    "eth_src": (0xAA0000000001, 0xAA0000000002, 0xAB0000000001),
    "eth_dst": (0xBB0000000001, 0xBB0000000002),
    "eth_type": (0x0800, 0x0806),
    "vlan_id": (5, 0x15, 0x25),
    "ip_src": (0x0A000001, 0x0A000101, 0x0A0F0001, 0x0B000001),
    "ip_dst": (0xC0A80107, 0xC0A80117, 0xC0A80207, 0xC0A90107, 0xC1A80107),
    "ip_proto": (6, 17),
    "tp_src": (40000, 40001, 50000),
    "tp_dst": (80, 443, 8080),
}

PRIORITIES = (1, 5, 5, 10, 10, 10, 20, 30)


class _Rule:
    """The classifier's whole rule protocol: match, priority, rule_id."""

    __slots__ = ("match", "priority", "rule_id")

    def __init__(self, match, priority, rule_id):
        self.match = match
        self.priority = priority
        self.rule_id = rule_id


def _draw_fields(rng):
    return {name: rng.choice(pool) for name, pool in VALUE_POOLS.items()}


def replay():
    """Run the seeded script against a fresh classifier.

    Returns ``(counts, records)``: one ``[rule_id, groups_probed,
    masks]`` record per lookup (``masks`` is ``None`` when the lookup
    did not un-wildcard).
    """
    # The staged section was recorded from ``SEED + staged``.
    rng = random.Random(SEED + 1)
    classifier = TupleSpaceClassifier()
    resident = []
    next_id = 0
    counts = {"insert": 0, "remove": 0, "lookup": 0}
    records = []
    for _ in range(STEPS):
        roll = rng.random()
        if roll < 0.30 or not resident:
            masks = rng.choice(MASK_TEMPLATES)
            values = _draw_fields(rng)
            match = TernaryMatch.from_fields(
                {name: values[name] for name in masks}, dict(masks)
            )
            rule = _Rule(match, rng.choice(PRIORITIES), next_id)
            next_id += 1
            classifier.insert(rule)
            resident.append(rule)
            counts["insert"] += 1
        elif roll < 0.45:
            rule = resident.pop(rng.randrange(len(resident)))
            classifier.remove(rule)
            counts["remove"] += 1
        else:
            flow = FlowKey.from_fields(_draw_fields(rng))
            if rng.random() < 0.6:
                result = classifier.lookup(flow)
                rule, probed = result.rule, result.groups_probed
                masks = list(result.wildcard.masks)
            else:
                (rule, probed), masks = classifier.climb(flow.packed), None
            records.append([
                None if rule is None else rule.rule_id, probed, masks,
            ])
            counts["lookup"] += 1
    assert len(classifier) == len(resident)
    return counts, records


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["staged"]


def test_classifier_reproduces_recorded_lookups(golden):
    counts, records = replay()
    assert counts == golden["counts"]
    for number, (got, want) in enumerate(zip(records, golden["lookups"])):
        assert got == want, f"lookup #{number} diverged"
    assert len(records) == len(golden["lookups"])


def test_script_is_big_enough(golden):
    """The recording covers inserts, removes, both lookup modes and
    misses."""
    counts = golden["counts"]
    modes = {record[2] is None for record in golden["lookups"]}
    assert modes == {True, False}
    assert any(record[0] is None for record in golden["lookups"])
    assert counts["insert"] + counts["remove"] >= 300
    assert counts["lookup"] >= 500
