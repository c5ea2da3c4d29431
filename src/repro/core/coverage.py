"""Rule-space coverage: how many distinct traversal outcomes a cache covers.

A Megaflow cache covers exactly one traversal per entry.  Gigaflow's
sub-traversal rules *cross-product*: any chain of installed rules through
strictly increasing tables whose tags link the pipeline entry to
:data:`~repro.core.ltm.TAG_DONE` handles a complete class of flows, even
combinations never seen in traffic (the purple paths of Fig. 5c).
:func:`coverage` counts every such chain: an upper bound, since tags may
link rules no one packet satisfies (e.g. segments pinned to different
source prefixes).  :func:`satisfiable_coverage` counts, as exactly, only
the chains some packet can take, the paper's Table 2 metric.  A
brute-force check of one chain is kept as the oracle its tests use.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..flow.actions import SetField
from ..flow.fields import DEFAULT_SCHEMA
from ..pipeline.pipeline import ENTRY_TABLE
from .gigaflow import GigaflowCache
from .ltm import TAG_DONE, LtmRule

#: Chain states :func:`satisfiable_coverage` keeps live between two
#: tables.  The largest Table 2 count that completes, paper-scale ANT,
#: peaks at 415K states (about 0.8 GiB); past the bound the count raises
#: rather than run out of memory.
MAX_LIVE_STATES = 1_000_000


class CoverageStateLimitError(RuntimeError):
    """More than :data:`MAX_LIVE_STATES` chain states were live after LTM
    table ``table``; ``pipeline`` names the cache's pipeline when known."""

    def __init__(self, table: int, states: int, pipeline: str = ""):
        self.table, self.states, self.pipeline = table, states, pipeline
        super().__init__(
            f"{pipeline + ': ' if pipeline else ''}{states} live chain states "
            f"after LTM table {table} exceed MAX_LIVE_STATES={MAX_LIVE_STATES}"
        )


def coverage(cache: GigaflowCache) -> int:
    """Number of distinct complete rule chains the cache can satisfy,
    counted from the pipeline's entry table
    (:data:`~repro.pipeline.pipeline.ENTRY_TABLE`).

    Dynamic program from the last table backwards: ``reachable[k][tag]`` is
    the number of chains completable using tables ``k..K-1`` for a packet
    whose metadata tag is ``tag``.  A rule in table ``k`` contributes the
    completions of its ``next_tag`` from table ``k+1`` on; a table can also
    be skipped (pass-through).
    """
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
    return reachable[ENTRY_TABLE]


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


def _packed_rules(cache: GigaflowCache) -> List[Dict[int, List[Tuple]]]:
    """Per table, tag -> packed ``(mask, value, set mask, set value, next tag)``."""
    tables = []
    for table in cache.tables:
        by_tag: Dict[int, List[Tuple]] = defaultdict(list)
        for rule in table:
            set_mask = set_value = 0
            for action in rule.actions:
                if isinstance(action, SetField):
                    index = DEFAULT_SCHEMA.index_of(action.field)
                    field = DEFAULT_SCHEMA.field_masks[index]
                    set_mask |= field
                    set_value = set_value & ~field | (
                        action.value << DEFAULT_SCHEMA.shifts[index])
            by_tag[rule.tag].append((rule.match.wildcard.packed, rule.match.packed,
                                     set_mask, set_value, rule.next_tag))
        tables.append(by_tag)
    return tables


def satisfiable_coverage(cache: GigaflowCache) -> int:
    """Number of complete rule chains some packet can take, counted exactly.

    A forward dynamic program over the tables.  A state is ``(tag,
    constraint mask, constraint value, rewrite mask, rewrite value)``,
    packed: the bits the packet must carry, and the bits earlier
    set-fields wrote (a later match reads those instead).  At each table
    a state skips, or takes a rule of its tag whose match agrees with
    both: the match joins the constraint, the constraint on the fields
    the rule rewrites is dropped and the rewrite recorded.  A rule ending
    in :data:`TAG_DONE` adds the state's multiplicity to the count.

    ``reach[i][tag]``, computed backwards, holds the bits any chain
    completable from ``tag`` over tables ``i..`` matches.  Between tables
    each state is cut to it, so states that differ only in bits no later
    rule reads merge, and states whose tag completes no chain drop out.
    Past :data:`MAX_LIVE_STATES` live states it raises
    :class:`CoverageStateLimitError`.
    """
    tables = _packed_rules(cache)
    reach: List[Dict[int, int]] = [{}]
    for by_tag in reversed(tables):
        later = reach[0]
        layer = dict(later)  # skipping the table
        for tag, rules in by_tag.items():
            for mask, _, _, _, next_tag in rules:
                if next_tag == TAG_DONE or next_tag in later:
                    layer[tag] = layer.get(tag, 0) | mask | later.get(next_tag, 0)
        reach.insert(0, layer)

    count = 0
    states: Dict[Tuple, int] = {(ENTRY_TABLE, 0, 0, 0, 0): 1}
    for i, by_tag in enumerate(tables):
        later = reach[i + 1]
        live: Dict[Tuple, int] = defaultdict(int)
        for (tag, c_mask, c_value, r_mask, r_value), n in states.items():
            keep = later.get(tag)
            if keep is not None:
                live[(tag, c_mask & keep, c_value & keep,
                      r_mask & keep, r_value & keep)] += n
            known, known_value = c_mask | r_mask, c_value | r_value
            for mask, value, set_mask, set_value, next_tag in by_tag.get(tag, ()):
                if (known_value ^ value) & mask & known:
                    continue
                if next_tag == TAG_DONE:
                    count += n
                    continue
                keep = later.get(next_tag)
                if keep is None:
                    continue
                fresh, unset = mask & ~r_mask, ~set_mask
                live[(
                    next_tag,
                    (c_mask | fresh) & unset & keep,
                    (c_value | value & fresh) & unset & keep,
                    (r_mask | set_mask) & keep,
                    (r_value & unset | set_value) & keep,
                )] += n
            if len(live) > MAX_LIVE_STATES:
                raise CoverageStateLimitError(i, len(live))
        states = live
    return count
