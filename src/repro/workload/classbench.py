"""Synthetic ClassBench-style rule sets.

ClassBench [Taylor & Turner, ToN '07] generates 5-tuple classifier rules
whose *structure* mimics real firewall/ACL/IPsec policies.  The property
Gigaflow exploits (Fig. 4) is that while full 5-tuples are essentially
unique (average reoccurrence ≈ 1.03 in the paper's 200K-rule set),
projections onto fewer fields repeat heavily (≈ 856 on average for 1–4
fields) — because real policies reuse subnets, port sets and protocols
across many rules.

This generator reproduces that structure hierarchically: a pool of source
and destination prefixes (with nested more-specific prefixes), a pool of
well-known service ports, and *communicating pairs* that fan out into many
per-service rules.  The Fig. 4 analysis function is provided alongside.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..flow.fields import prefix_mask

#: The classic 5-tuple, in ClassBench order.
FIVE_TUPLE_FIELDS: Tuple[str, ...] = (
    "ip_src",
    "ip_dst",
    "ip_proto",
    "tp_src",
    "tp_dst",
)

#: Well-known destination ports, weighted roughly like datacenter traffic.
_SERVICE_PORTS: Tuple[int, ...] = (
    80, 443, 22, 53, 123, 25, 110, 143, 3306, 5432, 6379, 8080, 8443,
    9090, 11211, 27017, 2049, 389, 636, 445, 88, 514, 161, 179, 500,
    4500, 1812, 5060, 8000, 9200,
)


@dataclass(frozen=True)
class ClassbenchRule:
    """One 5-tuple rule: per-field ``(value, mask)`` pairs.

    A mask of 0 means the field is wildcarded; IP masks are prefix-shaped.
    """

    ip_src: Tuple[int, int]
    ip_dst: Tuple[int, int]
    ip_proto: Tuple[int, int]
    tp_src: Tuple[int, int]
    tp_dst: Tuple[int, int]

    def field(self, name: str) -> Tuple[int, int]:
        return getattr(self, name)

    def projection(self, names: Sequence[str]) -> Tuple[Tuple[int, int], ...]:
        """The rule restricted to a subset of fields (Fig. 4's tuples)."""
        return tuple(self.field(name) for name in names)

    def matched_field_count(self) -> int:
        return sum(
            1 for name in FIVE_TUPLE_FIELDS if self.field(name)[1] != 0
        )


@dataclass(frozen=True)
class PrefixPool:
    """A pool of IP prefixes, some nested inside others.

    Nesting matters: more-specific prefixes overlapping broader ones are
    what exercises priority-dependency masking (§4.2.3's example).
    """

    prefixes: Tuple[Tuple[int, int], ...]  # (value, prefix_len)

    def __len__(self) -> int:
        return len(self.prefixes)

    def sample(self, rng: np.random.Generator, zipf_a: Optional[float]) -> Tuple[int, int]:
        """Draw one (value, mask) pair, optionally Zipf-skewed."""
        index = _skewed_index(rng, len(self.prefixes), zipf_a)
        value, plen = self.prefixes[index]
        return value, prefix_mask(plen)


def make_prefix_pool(
    rng: np.random.Generator,
    n_prefixes: int,
    base_octet: int,
    nested_fraction: float = 0.3,
) -> PrefixPool:
    """Build a pool of /16–/24 prefixes plus nested /28–/32 specifics."""
    if n_prefixes < 1:
        raise ValueError("pool needs at least one prefix")
    prefixes: List[Tuple[int, int]] = []
    n_base = max(1, int(n_prefixes * (1.0 - nested_fraction)))
    for _ in range(n_base):
        plen = int(rng.choice((16, 20, 24), p=(0.15, 0.25, 0.60)))
        value = (
            (base_octet << 24)
            | (int(rng.integers(0, 1 << 16)) << 8)
            | int(rng.integers(0, 256))
        ) & prefix_mask(plen)
        prefixes.append((value, plen))
    while len(prefixes) < n_prefixes:
        parent_value, parent_len = prefixes[
            int(rng.integers(0, n_base))
        ]
        plen = int(rng.choice((28, 32), p=(0.4, 0.6)))
        extra_bits = plen - parent_len
        suffix = int(rng.integers(0, 1 << extra_bits)) << (32 - plen)
        value = (parent_value | suffix) & prefix_mask(plen)
        prefixes.append((value, plen))
    return PrefixPool(tuple(prefixes))


def _skewed_index(
    rng: np.random.Generator, n: int, zipf_a: Optional[float]
) -> int:
    """Index in [0, n): uniform when ``zipf_a`` is None, else Zipf-skewed."""
    if zipf_a is None:
        return int(rng.integers(0, n))
    index = int(rng.zipf(zipf_a)) - 1
    return index % n


#: Prefix pool sizes; smaller pools mean heavier sub-tuple sharing.
N_SRC_PREFIXES = 400
N_DST_PREFIXES = 400
#: Mean number of per-service rules emitted per communicating
#: (src, dst) pair.
PAIR_FANOUT = 8.0
#: Skew of pool sampling.
ZIPF_A = 1.3
#: Probability a rule wildcards the source port (real ACLs almost
#: always do).
WILDCARD_TP_SRC = 0.8


def generate_ruleset(n_rules: int, seed: int = 0) -> List[ClassbenchRule]:
    """``n_rules`` unique :class:`ClassbenchRule` s with realistic sharing
    (the paper analyses 200K), drawn from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    src_pool = make_prefix_pool(rng, N_SRC_PREFIXES, base_octet=10)
    dst_pool = make_prefix_pool(rng, N_DST_PREFIXES, base_octet=192)
    rules: List[ClassbenchRule] = []
    seen = set()
    port_full = prefix_mask(16, 16)
    proto_full = prefix_mask(8, 8)
    attempts = 0
    max_attempts = n_rules * 50
    while len(rules) < n_rules and attempts < max_attempts:
        attempts += 1
        # One communicating pair fans out into several service rules.
        src = src_pool.sample(rng, ZIPF_A)
        dst = dst_pool.sample(rng, ZIPF_A)
        fanout = 1 + rng.poisson(max(PAIR_FANOUT - 1.0, 0.0))
        for _ in range(int(fanout)):
            if len(rules) >= n_rules:
                break
            proto = int(rng.choice((6, 17, 1), p=(0.72, 0.23, 0.05)))
            if proto == 1:
                tp_dst = (0, 0)
            else:
                tp_dst = (
                    int(rng.choice(_SERVICE_PORTS)),
                    port_full,
                )
            if rng.random() < WILDCARD_TP_SRC:
                tp_src = (0, 0)
            else:
                tp_src = (int(rng.integers(1024, 65536)), port_full)
            rule = ClassbenchRule(
                ip_src=src,
                ip_dst=dst,
                ip_proto=(proto, proto_full),
                tp_src=tp_src,
                tp_dst=tp_dst,
            )
            key = (rule.ip_src, rule.ip_dst, rule.ip_proto,
                   rule.tp_src, rule.tp_dst)
            if key in seen:
                continue
            seen.add(key)
            rules.append(rule)
    return rules


# -- Fig. 4 analysis -------------------------------------------------------------


def tuple_reoccurrence(
    rules: Sequence[ClassbenchRule], field_count: int
) -> float:
    """Average reoccurrence frequency of ``field_count``-field tuples.

    For every combination of ``field_count`` fields out of the 5-tuple,
    project each rule onto those fields and measure the mean group size of
    identical projections; average over the combinations.  This is Fig. 4's
    y-axis: ~1 at 5 fields, rising steeply as fields drop away.
    """
    if not 1 <= field_count <= len(FIVE_TUPLE_FIELDS):
        raise ValueError(f"field_count out of range: {field_count}")
    if not rules:
        raise ValueError("empty ruleset")
    combo_means: List[float] = []
    for combo in itertools.combinations(FIVE_TUPLE_FIELDS, field_count):
        groups: Dict[Tuple, int] = {}
        for rule in rules:
            key = rule.projection(combo)
            groups[key] = groups.get(key, 0) + 1
        sizes = list(groups.values())
        combo_means.append(sum(sizes) / len(sizes))
    return sum(combo_means) / len(combo_means)


def reoccurrence_curve(
    rules: Sequence[ClassbenchRule],
) -> Dict[int, float]:
    """The full Fig. 4 curve: field count (1..5) → average reoccurrence."""
    return {
        k: tuple_reoccurrence(rules, k)
        for k in range(1, len(FIVE_TUPLE_FIELDS) + 1)
    }
