"""Invariant checking for Gigaflow caches (debug/ops tooling).

`validate_cache` proves structural invariants (capacity, index
consistency, tag sanity); `chain_report` measures how much of the cache
participates in complete chains — orphaned rules are capacity waste that
the coverage metric silently ignores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from ..pipeline.pipeline import ENTRY_TABLE
from .gigaflow import GigaflowCache
from .ltm import TAG_DONE


class CacheInvariantError(AssertionError):
    """Raised when a cache violates a structural invariant."""


def validate_cache(cache: GigaflowCache) -> None:
    """Check structural invariants; raises :class:`CacheInvariantError`.

    * per-table entry counts within capacity;
    * every rule findable through its own identity (index consistency)
      and recording the table that holds it;
    * priorities positive and equal to recorded lengths;
    * next-tags either terminal or plausible vSwitch table ids.
    """
    for table in cache.tables:
        if len(table) > table.capacity:
            raise CacheInvariantError(
                f"table {table.index} holds {len(table)} rules, "
                f"capacity {table.capacity}"
            )
        for rule in table:
            if table.find_identical(rule.identity) is not rule:
                raise CacheInvariantError(
                    f"identity index inconsistent for {rule!r}"
                )
            if rule.table != table.index:
                raise CacheInvariantError(
                    f"table back-reference {rule.table} on {rule!r} "
                    f"held by table {table.index}"
                )
            if rule.priority != rule.length or rule.priority < 1:
                raise CacheInvariantError(
                    f"bad priority/length on {rule!r}"
                )
            if rule.next_tag != TAG_DONE and rule.next_tag < 0:
                raise CacheInvariantError(
                    f"bad next tag on {rule!r}"
                )


@dataclass
class ChainReport:
    """How the cache's rules participate in complete chains.

    Attributes:
        total_rules: Rules installed across all tables.
        reachable: Rules reachable from the start tag (ignoring matches).
        productive: Rules that additionally reach ``TAG_DONE`` through
            later tables — i.e. they sit on at least one complete chain;
            the rest can never contribute to a cache hit.
    """

    total_rules: int
    reachable: int
    productive: int


def chain_report(cache: GigaflowCache) -> ChainReport:
    """Classify every rule by chain participation."""
    tables = cache.tables
    k = len(tables)

    # Forward pass: tags reachable entering each table index.
    reachable_sets: List[Set[int]] = []
    current: Set[int] = {ENTRY_TABLE}
    for table in tables:
        reachable_sets.append(set(current))
        produced = {
            rule.next_tag
            for rule in table
            if rule.tag in current and rule.next_tag != TAG_DONE
        }
        current |= produced

    # Backward pass: tags from which DONE is completable starting at
    # table index i.
    completable: List[Set[int]] = [set() for _ in range(k + 1)]
    for i in range(k - 1, -1, -1):
        tags = set(completable[i + 1])
        for rule in tables[i]:
            if rule.next_tag == TAG_DONE or (
                rule.next_tag in completable[i + 1]
            ):
                tags.add(rule.tag)
        completable[i] = tags

    total = reachable = productive = 0
    for i, table in enumerate(tables):
        for rule in table:
            total += 1
            if rule.tag in reachable_sets[i]:
                reachable += 1
                finishes = rule.next_tag == TAG_DONE or (
                    i + 1 <= k - 1
                    and rule.next_tag in completable[i + 1]
                )
                if finishes:
                    productive += 1
    return ChainReport(total, reachable, productive)
