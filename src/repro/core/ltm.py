"""Longest Traversal Matching (LTM) tables — §4.1, Fig. 6.

An LTM table is the software model of one P4 match-action table in the
SmartNIC: an exact match on the 8-bit table tag ``τ`` plus ternary matches
on the header fields, with rule priority ``ρ`` equal to the sub-traversal
length (longer sub-traversals win, hence *Longest Traversal Matching*).
Actions rewrite headers, advance the tag to the next expected vSwitch
table, and forward/drop when the sub-traversal ends the pipeline.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

from ..classify.tss import TupleSpaceClassifier
from ..flow.actions import ActionList
from ..flow.key import FlowKey
from ..flow.match import TernaryMatch

#: Tag value meaning "traversal complete" — the packet has been fully
#: processed and the terminal action (forward/drop) has fired.
TAG_DONE = -1

_ltm_ids = itertools.count()

class LtmRule:
    """One sub-traversal cached as an LTM entry.

    Attributes:
        tag: Exact-match table tag ``τ`` — the vSwitch table ID the parent
            sub-traversal starts at.
        match: Ternary predicate ``M_k`` over the header fields.
        priority: ``ρ`` — the number of vSwitch tables spanned.
        actions: The commit ``α_k``: set-field rewrites plus, for terminal
            sub-traversals, the forward/drop.
        next_tag: Tag after this rule fires — the next expected vSwitch
            table, or :data:`TAG_DONE` when the sub-traversal is terminal.
        parent_flow: Flow at sub-traversal entry (revalidation replays it).
        length: Tables spanned (= ``priority``; kept for readability).
        generation: Pipeline generation the rule was derived from.
        path: Table ids of the sub-traversal, as last walked.
        verified: Pipeline generation of the last walk that agreed
            with the rule (``None``: no walk known to, so revalidation
            always replays it).
        identity: Value identity ``(tag, match, next_tag, actions)``:
            two rules with equal identity are the same cached
            sub-traversal and can be shared across traversals
            (Fig. 5c).  Kept from construction: the four attributes it
            is made of are never reassigned, and a table files the rule
            under it.
        table: Index of the :class:`LtmTable` that filed the rule
            (``None`` until one does), so the cache removes it from
            that table without asking the others.
    """

    __slots__ = (
        "tag",
        "match",
        "priority",
        "actions",
        "next_tag",
        "parent_flow",
        "length",
        "generation",
        "path",
        "verified",
        "last_used",
        "install_count",
        "rule_id",
        "identity",
        "table",
    )

    def __init__(
        self,
        tag: int,
        match: TernaryMatch,
        priority: int,
        actions: ActionList,
        next_tag: int,
        parent_flow: FlowKey,
        generation: int = 0,
        now: float = 0.0,
    ):
        if priority < 1:
            raise ValueError(f"LTM priority must be >= 1, got {priority}")
        self.tag = tag
        self.match = match
        self.priority = priority
        self.actions = actions
        self.next_tag = next_tag
        self.parent_flow = parent_flow
        self.length = priority
        self.generation = generation
        self.path: Tuple[int, ...] = ()
        self.verified: Optional[int] = None
        self.last_used = now
        #: How many distinct traversal installs produced/reused this rule —
        #: the sharing frequency of Fig. 11.
        self.install_count = 1
        self.rule_id = next(_ltm_ids)
        self.identity = (tag, match, next_tag, actions)
        self.table: Optional[int] = None

    def __repr__(self) -> str:
        nxt = "DONE" if self.next_tag == TAG_DONE else self.next_tag
        return (
            f"LtmRule(id={self.rule_id}, tag={self.tag}, rho={self.priority}, "
            f"{self.match!r} -> next_tag={nxt})"
        )


class TagDependency:
    """How often one ``(table, tag)`` bucket changed, kept so a memoized
    hit can tell which of its lookups to re-run
    (:meth:`~repro.core.gigaflow._GigaflowHitReplay.still_valid`).

    It belongs to the tag, not to the bucket's classifier, so it
    survives the bucket being emptied and re-created.

    Attributes:
        changes: Rules inserted into or removed from the bucket, ever.
            Only :class:`LtmTable` moves it.
    """

    __slots__ = ("changes",)

    def __init__(self) -> None:
        self.changes = 0


class LtmTable:
    """One Gigaflow cache table ``GF_k``.

    Rules are indexed per tag (the exact-match component), each tag bucket
    being a ternary TSS classifier.  Within a tag, the winner is the rule
    with the highest ``ρ`` (the LTM selection rule of §4.1.1).
    """

    def __init__(self, index: int, capacity: int = 8192):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.index = index
        self.capacity = capacity
        #: Telemetry ``(miss, hit)`` counter children propagated to
        #: every per-tag classifier bucket (``None`` = not observed).
        self._observer = None
        #: tag -> its classifier bucket (present while it holds a rule).
        self.buckets: Dict[int, TupleSpaceClassifier[LtmRule]] = {}
        #: Per-tag change counters fast-path records are validated
        #: against; a tag is created on first read (tags are pipeline
        #: table ids, so there are few).
        self.dependencies: Dict[int, TagDependency] = defaultdict(
            TagDependency
        )
        #: identity → resident rule: the table's rules, in filing
        #: order, and the index sharing is found by.
        self.by_identity: Dict[Tuple, LtmRule] = {}
        #: id → rule, in touch order: every ``last_used`` writer (this
        #: table's :meth:`touch`, or a hit's record) moves the rule to
        #: the end, so the first value is the least recently touched
        #: rule.  Never rebound: :attr:`move_to_recent` is bound to it.
        self._by_id: "OrderedDict[int, LtmRule]" = OrderedDict()
        #: ``_by_id``'s move to the recent end, bound once per table
        #: so a memoized hit keeps it per matched rule.
        self.move_to_recent = self._by_id.move_to_end

    # -- capacity ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.by_identity)

    # -- rule management -------------------------------------------------------------

    def find_identical(self, identity: Tuple) -> Optional[LtmRule]:
        """An already-installed rule with the same value identity, if any."""
        return self.by_identity.get(identity)

    def insert(self, rule: LtmRule) -> bool:
        """File a rule and record this table on it; returns False when
        the table is full.  A rule identical to a resident one is not
        filed: the resident rule is shared (:meth:`share`) instead.

        The identity is hashed once: the index's ``setdefault`` both
        finds a resident twin and files the rule."""
        by_identity = self.by_identity
        size = len(by_identity)
        resident = by_identity.setdefault(rule.identity, rule)
        if len(by_identity) == size:
            self.share(resident, rule)
            return True
        if size >= self.capacity:
            del by_identity[rule.identity]
            return False
        tag = rule.tag
        bucket = self.buckets.get(tag)
        if bucket is None:
            bucket = self.buckets[tag] = TupleSpaceClassifier()
            bucket.observer = self._observer
        bucket.insert(rule)
        self.dependencies[tag].changes += 1
        self._by_id[rule.rule_id] = rule
        rule.table = self.index
        return True

    def touch(self, rule: LtmRule, now: float) -> None:
        """Mark a rule used at ``now`` and move it to the recent end of
        the id index.

        ``_by_id`` is touch order, which equals ``last_used`` order
        only while time does not regress, and it can: the timestamps
        of :func:`repro.serve.endless_packets` regress at segment
        seams.  The victim :meth:`lru_rule` names is then
        the least recently touched rule, and
        :meth:`~repro.cache.base.FlowCache.evict_idle` scans every rule
        rather than stopping at the first recent one."""
        rule.last_used = now
        self.move_to_recent(rule.rule_id)

    def share(self, rule: LtmRule, incoming: LtmRule) -> None:
        """Record that ``incoming`` (a fresh identical rule from another
        traversal) reuses the installed ``rule`` — the Fig. 5c sharing
        event ``install_count`` tallies (Fig. 11)."""
        rule.install_count += 1
        self.touch(rule, max(rule.last_used, incoming.last_used))
        rule.generation = max(rule.generation, incoming.generation)

    def __contains__(self, rule: LtmRule) -> bool:
        return self._by_id.get(rule.rule_id) is rule

    def remove(self, rule: LtmRule) -> None:
        """Unlink a rule from the table's indexes; ``KeyError`` when it
        is not resident here.  The cache owns the bookkeeping of *why*
        it left (:meth:`~repro.cache.base.FlowCache._depart`).  A
        tag's last rule takes its bucket with it, unsearched."""
        rule_id = rule.rule_id
        by_id = self._by_id
        if by_id.get(rule_id) is not rule:
            raise KeyError(f"rule not in table {self.index}: {rule!r}")
        del by_id[rule_id]
        del self.by_identity[rule.identity]
        tag = rule.tag
        buckets = self.buckets
        bucket = buckets[tag]
        if len(bucket) == 1:
            del buckets[tag]
        else:
            bucket.remove(rule)
        self.dependencies[tag].changes += 1

    def __iter__(self) -> Iterator[LtmRule]:
        return iter(self.by_identity.values())

    # -- lookup -----------------------------------------------------------------------

    def lookup(self, flow: FlowKey, tag: int) -> Tuple[Optional[LtmRule], int]:
        """Match ``(τ=tag, flow)``; returns (winning rule, groups probed).

        The exact tag match filters out sub-traversals that are not part of
        the packet's expected sequence (§4.1.1); priorities then implement
        the longest-sub-traversal selection.  The result is the tag
        bucket's :meth:`~repro.classify.tss.TupleSpaceClassifier.climb`
        tuple, returned as it is.
        """
        bucket = self.buckets.get(tag)
        if bucket is None:
            return None, 0
        return bucket.climb(flow.packed)

    def lru_rule(self) -> Optional[LtmRule]:
        """The least recently used rule — the table's eviction victim
        candidate — off the head of the id index (``None`` when
        empty)."""
        return next(iter(self._by_id.values()), None)

    # -- observability ------------------------------------------------------------------

    def set_observer(self, observer) -> None:
        """Install TSS search counters (``Telemetry.tss_observer``'s
        ``(miss, hit)`` children) on every (current and future) per-tag
        bucket of this table."""
        self._observer = observer
        for bucket in self.buckets.values():
            bucket.observer = observer

    # -- introspection ------------------------------------------------------------------

    def rules_with_tag(self, tag: int) -> List[LtmRule]:
        bucket = self.buckets.get(tag)
        return list(bucket) if bucket is not None else []

    def mean_group_count(self) -> float:
        """Average TSS mask groups per tag bucket — the groups the TSS
        walk probes on a miss; a climb is charged it (the tag
        exact-match selects a single bucket first)."""
        if not self.buckets:
            return 0.0
        return sum(
            bucket.group_count for bucket in self.buckets.values()
        ) / len(self.buckets)

    def __repr__(self) -> str:
        return (
            f"LtmTable(index={self.index}, entries={len(self)}/"
            f"{self.capacity}, tags={len(self.buckets)})"
        )
