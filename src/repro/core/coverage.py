"""Rule-space coverage: how many distinct traversal outcomes a cache covers.

A Megaflow cache covers exactly one traversal per entry.  Gigaflow's
sub-traversal rules *cross-product*: any chain of installed rules through
strictly increasing tables whose tags link the pipeline entry to
:data:`~repro.core.ltm.TAG_DONE` handles a complete class of flows — even
combinations never seen in traffic (the purple paths of Fig. 5c).  This
module counts those chains exactly (big-int DAG path counting), which is
the paper's Table 2 metric showing up to 450× more coverage.

The DAG count is an *upper bound*: tags may link two rules whose header
matches no packet can satisfy simultaneously (e.g. segments pinned to
different source prefixes).  :func:`estimate_satisfiable_coverage`
tightens it by sampling chains proportionally to the DAG-count measure
and checking each for packet-satisfiability with a per-field bit
constraint solver.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..flow.actions import SetField
from ..flow.fields import DEFAULT_SCHEMA
from .gigaflow import GigaflowCache
from .ltm import TAG_DONE, LtmRule


def coverage(cache: GigaflowCache, start_tag: int = None) -> int:
    """Number of distinct complete rule chains the cache can satisfy.

    Dynamic program from the last table backwards: ``reachable[k][tag]`` is
    the number of chains completable using tables ``k..K-1`` for a packet
    whose metadata tag is ``tag``.  A rule in table ``k`` contributes the
    completions of its ``next_tag`` from table ``k+1`` on; a table can also
    be skipped (pass-through).
    """
    if start_tag is None:
        start_tag = cache.start_tag
    # reachable maps tag -> chain count using the remaining tables.
    reachable: Dict[int, int] = defaultdict(int)
    for table in reversed(cache.tables):
        additions: Dict[int, int] = defaultdict(int)
        for rule in table:
            if rule.next_tag == TAG_DONE:
                completions = 1
            else:
                completions = reachable[rule.next_tag]
            if completions:
                additions[rule.tag] += completions
        # Skipping the table keeps `reachable` as-is; matching adds chains.
        for tag, count in additions.items():
            reachable[tag] += count
    return reachable[start_tag]


def chain_satisfiable(rules: Sequence[LtmRule]) -> bool:
    """True when some packet can match every rule in the chain, in order.

    Tracks, per field, either a *determined* value (written by an earlier
    rule's set-field action — later matches must agree with it) or an
    accumulated bit constraint ``(mask, value)`` on the original packet.
    Two constraints conflict when they disagree on shared bits.
    """
    if not rules:
        return False
    n = len(DEFAULT_SCHEMA)
    determined: List[Optional[int]] = [None] * n
    constraint_mask = [0] * n
    constraint_value = [0] * n

    for rule in rules:
        masks = rule.match.mask_tuple
        values = rule.match.canonical_key
        for i in range(n):
            mask = masks[i]
            if not mask:
                continue
            if determined[i] is not None:
                # The field was rewritten upstream; the match applies to
                # the rewritten value.
                if (determined[i] & mask) != values[i]:
                    return False
                continue
            common = constraint_mask[i] & mask
            if (constraint_value[i] & common) != (values[i] & common):
                return False
            constraint_mask[i] |= mask
            constraint_value[i] = (
                constraint_value[i] | (values[i] & mask)
            )
        for action in rule.actions:
            if isinstance(action, SetField):
                determined[DEFAULT_SCHEMA.index_of(action.field)] = (
                    action.value
                )
    return True


@dataclass
class SatisfiableCoverage:
    """Result of the sampled satisfiability estimate.

    Attributes:
        chain_count: The exact DAG chain count (the upper bound).
        sampled: Chains sampled.
        satisfiable: Samples that admit a real packet.
        estimate: ``chain_count × satisfiable/sampled``.
    """

    chain_count: int
    sampled: int
    satisfiable: int

    @property
    def fraction(self) -> float:
        return self.satisfiable / self.sampled if self.sampled else 0.0

    @property
    def estimate(self) -> int:
        return int(self.chain_count * self.fraction)


def estimate_satisfiable_coverage(
    cache: GigaflowCache,
    samples: int = 200,
    seed: int = 0,
    start_tag: int = None,
    min_hits: int = 20,
    max_samples: int = 5000,
) -> SatisfiableCoverage:
    """Sample chains ∝ the DAG measure and test packet-satisfiability.

    Sampling walks the tables front to back: at each step the choice
    between *skipping* the table and *taking* each matching-tag rule is
    weighted by the number of completions each option leads to, so every
    complete chain is drawn with equal probability.  When the satisfiable
    fraction is tiny, sampling continues in batches of ``samples`` until
    ``min_hits`` satisfiable chains were seen or ``max_samples`` chains
    were drawn (adaptive resolution for heavily over-counted DAGs).
    """
    if start_tag is None:
        start_tag = cache.start_tag
    tables = cache.tables
    k = len(tables)

    # completions[i][tag]: chains completable using tables i..k-1.
    completions: List[Dict[int, int]] = [defaultdict(int)
                                         for _ in range(k + 1)]
    for i in range(k - 1, -1, -1):
        layer = completions[i]
        nxt = completions[i + 1]
        for tag, count in nxt.items():
            layer[tag] += count
        for rule in tables[i]:
            gain = 1 if rule.next_tag == TAG_DONE else nxt[rule.next_tag]
            if gain:
                layer[rule.tag] += gain

    total = completions[0][start_tag]
    if not total:
        return SatisfiableCoverage(0, 0, 0)

    rng = np.random.default_rng(seed)
    satisfiable = 0
    drawn = 0
    while drawn < max_samples and (
        drawn < samples or satisfiable < min_hits
    ):
        drawn += 1
        chain: List[LtmRule] = []
        tag = start_tag
        for i in range(k):
            if tag == TAG_DONE:
                break
            skip_weight = completions[i + 1][tag]
            options: List[Tuple[Optional[LtmRule], int]] = []
            if skip_weight:
                options.append((None, skip_weight))
            for rule in tables[i].rules_with_tag(tag):
                gain = (1 if rule.next_tag == TAG_DONE
                        else completions[i + 1][rule.next_tag])
                if gain:
                    options.append((rule, gain))
            weights = np.array([w for _, w in options], dtype=np.float64)
            choice = int(rng.choice(len(options),
                                    p=weights / weights.sum()))
            picked = options[choice][0]
            if picked is not None:
                chain.append(picked)
                tag = picked.next_tag
        if tag == TAG_DONE and chain_satisfiable(chain):
            satisfiable += 1
    return SatisfiableCoverage(total, drawn, satisfiable)
