"""Tuple Space Search (TSS) — the classifier used throughout the system.

TSS [Srinivasan et al., SIGCOMM '99] groups rules by their mask tuple; a
lookup hashes the packet once per distinct mask.  This is the classifier
Open vSwitch uses for both its OpenFlow tables and its Megaflow cache
[Pfaff et al., NSDI '15], and the paper's software baseline (§6.3.4).

This implementation reproduces the two OVS refinements that matter for
cache-entry quality:

* **Staged lookup** — each group's mask is split into cumulative stages
  (port → L2 → L3 → L4).  A lookup that fails at stage *s* only
  un-wildcards the fields of stages ``<= s``, keeping dependency masks
  tight.
* **Prefix tracking** — IP fields with prefix masks are additionally
  indexed in a :class:`~repro.classify.trie.PrefixTrie`; the trie yields
  the minimal number of leading address bits that distinguish the packet
  from every stored prefix (the paper's §4.2.3 example).

The classifier runs on the packed form of the header vector (see
:class:`~repro.flow.fields.FieldSchema`): a mask group is one integer, a
stage probe is ``flow.packed & stage_mask in stage_keys``, and
un-wildcarding ORs one integer per probed group.

The classifier is generic over any rule type exposing ``match``
(:class:`~repro.flow.match.TernaryMatch`) and ``priority``.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import (
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..flow.fields import FieldSchema
from ..flow.key import FlowKey
from ..flow.wildcard import Wildcard
from .trie import PrefixTrie, mask_to_prefix_len

#: Cumulative staged-lookup layers, in probe order.
STAGE_LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("port",),
    ("port", "l2"),
    ("port", "l2", "l3"),
    ("port", "l2", "l3", "l4"),
)

#: Fields indexed by prefix tries when their masks are prefix-shaped.
DEFAULT_TRIE_FIELDS: Tuple[str, ...] = ("ip_src", "ip_dst")

RuleT = TypeVar("RuleT")

#: One probe step of a group: ``(cumulative stage mask, keys present
#: under it, the bits a miss here examined outside prefix-trie fields,
#: bitset of the prefix-trie fields it examined)``.
_Stage = Tuple[int, Dict[int, object], int, int]


@dataclass
class LookupResult(Generic[RuleT]):
    """Outcome of a classifier lookup.

    Attributes:
        rule: The winning rule, or ``None`` on a miss.
        wildcard: When unwildcarding was requested, the header bits the
            lookup *examined* — the matched rule's own mask plus every bit
            needed to rule out higher-priority rules.  ``None`` otherwise.
        groups_probed: Number of mask groups hashed (the classic TSS cost
            metric ``O(M)``; feeds the CPU cost model).
    """

    rule: Optional[RuleT]
    wildcard: Optional[Wildcard] = None
    groups_probed: int = 0


_group_seq = iter(range(1 << 62))


def _bucket_order(rule) -> Tuple[int, int]:
    """Sort key inside one bucket: best priority first, then oldest."""
    return (-rule.priority, getattr(rule, "rule_id", 0))


class _Group(Generic[RuleT]):
    """All rules sharing one (packed) mask.

    ``stages`` is the probe sequence.  Every stage but the last keeps a
    reference-counted dict of the masked keys present, so removals never
    rebuild it; the last stage's mask is the group's full mask and its
    key table is :attr:`rules` itself.
    """

    __slots__ = ("stages", "rules", "max_priority", "prefixes", "seq")

    def __init__(
        self,
        stage_masks: Sequence[int],
        prefixes: Tuple[Tuple[int, int], ...],
        field_masks: Tuple[int, ...],
    ):
        self.seq = next(_group_seq)
        #: Packed masked value -> rules, best priority first.
        self.rules: Dict[int, List[RuleT]] = {}
        self.max_priority = 0
        #: ``(field index, prefix length)`` of every trie field whose
        #: mask here is prefix-shaped.
        self.prefixes = prefixes
        stages: List[_Stage] = []
        for stage_mask in stage_masks:
            trie_bits = trie_mask = 0
            for index, _ in prefixes:
                if stage_mask & field_masks[index]:
                    trie_bits |= 1 << index
                    trie_mask |= field_masks[index]
            keys = self.rules if stage_mask == stage_masks[-1] else {}
            stages.append((stage_mask, keys, stage_mask & ~trie_mask, trie_bits))
        self.stages: Tuple[_Stage, ...] = tuple(stages)

    def recompute_max_priority(self) -> None:
        self.max_priority = max(
            (rules[0].priority for rules in self.rules.values()),
            default=0,
        )


class TupleSpaceClassifier(Generic[RuleT]):
    """A priority-aware TSS classifier with staged lookup and prefix tries."""

    def __init__(
        self,
        schema: FieldSchema,
        trie_fields: Sequence[str] = DEFAULT_TRIE_FIELDS,
        staged: bool = True,
    ):
        self.schema = schema
        self.staged = staged
        #: Optional telemetry pending cell — a two-slot ``[miss, hit]``
        #: list bumped inline after every lookup; ``None`` (the default)
        #: costs one attribute check on the hot path.
        self.observer_cells = None
        self._groups: Dict[int, _Group[RuleT]] = {}
        #: Probe order: ``(best priority, stages, rules)`` per group.
        self._ordered: List[Tuple[int, Tuple[_Stage, ...], Dict]] = []
        self._order_dirty = False
        self._size = 0
        self._tries: Dict[int, PrefixTrie] = {
            schema.index_of(name): PrefixTrie(schema.field(name).width)
            for name in trie_fields
            if name in schema
        }
        #: Per cumulative stage, the packed mask of the fields in it.
        self._layer_masks: Tuple[int, ...] = tuple(
            sum(
                field_mask
                for f, field_mask in zip(schema, schema.field_masks)
                if f.layer in layers
            )
            for layers in STAGE_LAYERS
        )

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[RuleT]:
        for group in self._groups.values():
            for rules in group.rules.values():
                yield from rules

    @property
    def group_count(self) -> int:
        """Number of distinct mask tuples (TSS's ``M``)."""
        return len(self._groups)

    # -- mutation -----------------------------------------------------------------

    def insert(self, rule: RuleT) -> Optional[int]:
        """Add ``rule``; returns the probe-order change, if any.

        Lookups walk groups best priority first, oldest group first
        within a priority, and stop at the first group whose best
        priority does not exceed the winner's.  An update that creates
        or deletes a group, or moves one's best priority, therefore
        changes the groups probed by exactly the lookups whose winner's
        priority is *at most* the returned level (a lookup that found
        nothing probes every group, so any change moves it).  A new
        group sorts last within its level, so creating one at level
        ``L`` returns ``L - 1``; a deletion at ``L`` returns ``L``; a
        move returns the higher of the two levels.  ``None`` means the
        probe order is as it was.
        """
        match = rule.match
        mask = match.wildcard.packed
        group = self._groups.get(mask)
        created = group is None
        if created:
            group = self._groups[mask] = self._make_group(mask)
            self._order_dirty = True
        old_priority = group.max_priority
        canonical = match.packed
        bucket = group.rules.get(canonical)
        if bucket is None:
            group.rules[canonical] = [rule]
        else:
            insort(bucket, rule, key=_bucket_order)
        for stage_mask, keys, _, _ in group.stages[:-1]:
            key = canonical & stage_mask
            keys[key] = keys.get(key, 0) + 1
        if rule.priority > group.max_priority:
            group.max_priority = rule.priority
            self._order_dirty = True
        self._size += 1
        for index, prefix_len in group.prefixes:
            self._tries[index].insert(
                self._field_of(canonical, index), prefix_len
            )
        if created:
            return group.max_priority - 1
        if group.max_priority != old_priority:
            return group.max_priority
        return None

    def remove(self, rule: RuleT) -> Optional[int]:
        """Drop ``rule``; returns the probe-order change as
        :meth:`insert` does.  ``KeyError`` when it is not present."""
        match = rule.match
        mask = match.wildcard.packed
        canonical = match.packed
        group = self._groups.get(mask)
        bucket = group.rules.get(canonical) if group is not None else None
        if not bucket or rule not in bucket:
            raise KeyError(f"rule not present: {rule!r}")
        bucket.remove(rule)
        if not bucket:
            del group.rules[canonical]
        # Drop only this key's stage entries, and only once no other rule
        # still maps to them (the refcount).
        for stage_mask, keys, _, _ in group.stages[:-1]:
            key = canonical & stage_mask
            remaining = keys[key] - 1
            if remaining:
                keys[key] = remaining
            else:
                del keys[key]
        self._size -= 1
        for index, prefix_len in group.prefixes:
            self._tries[index].remove(
                self._field_of(canonical, index), prefix_len
            )
        old_priority = group.max_priority
        if not group.rules:
            del self._groups[mask]
            self._order_dirty = True
            return old_priority
        if rule.priority >= old_priority:
            group.recompute_max_priority()
            self._order_dirty = True
            if group.max_priority != old_priority:
                return old_priority
        return None

    def clear(self) -> None:
        self._groups.clear()
        self._ordered.clear()
        self._size = 0
        for index, trie in self._tries.items():
            self._tries[index] = PrefixTrie(trie.width)

    # -- lookup --------------------------------------------------------------------

    def lookup(
        self, flow: FlowKey, unwildcard: bool = False
    ) -> LookupResult[RuleT]:
        """Find the highest-priority matching rule.

        With ``unwildcard=True`` the result carries the dependency wildcard:
        the union of the matched rule's mask and the bits examined while
        ruling out every group that could have held a higher-priority match
        — for a group that missed at stage *s*, the cumulative stage-*s*
        mask; for one that hit, its full mask.  For prefix-shaped trie
        fields the (tight) trie mask replaces the raw field mask.
        """
        if self._order_dirty:
            # Rebuilding from the group dict (rather than sorting in
            # place) lets ``remove`` skip the O(M) list removal.  Every
            # change of a group's best priority marks the order dirty,
            # so the loop below can read a snapshot instead of the group.
            self._ordered = [
                (group.max_priority, group.stages, group.rules)
                for group in sorted(
                    self._groups.values(),
                    key=lambda g: (-g.max_priority, g.seq),
                )
            ]
            self._order_dirty = False

        packed = flow.packed
        best: Optional[RuleT] = None
        best_priority = -1
        probed = 0
        examined = 0  # packed bits examined outside prefix-trie fields
        trie_bits = 0  # bitset of the prefix-trie fields examined

        for max_priority, stages, rules in self._ordered:
            if max_priority <= best_priority:
                break
            probed += 1
            # ``stage`` is left at the stage that missed or, when all
            # hit, at the last one — whose mask is the group's own.
            for stage in stages:
                key = packed & stage[0]
                if key not in stage[1]:
                    break
            else:
                candidate = rules[key][0]
                if candidate.priority > best_priority:
                    best = candidate
                    best_priority = candidate.priority
            if unwildcard:
                examined |= stage[2]
                trie_bits |= stage[3]

        wildcard = None
        if unwildcard:
            if trie_bits:
                values = flow.values
                shifts = self.schema.shifts
                for index, trie in self._tries.items():
                    if trie_bits >> index & 1:
                        examined |= trie.mask_for(values[index]) << shifts[index]
            wildcard = Wildcard.from_packed(self.schema, examined)
        cells = self.observer_cells
        if cells is not None:
            cells[1 if best is not None else 0] += 1
        return LookupResult(best, wildcard, probed)

    # -- internals --------------------------------------------------------------------

    def _field_of(self, packed: int, index: int) -> int:
        schema = self.schema
        return (packed >> schema.shifts[index]) & schema.full_masks[index]

    def _make_group(self, mask: int) -> _Group[RuleT]:
        stage_masks: List[int] = []
        if self.staged:
            for layer_mask in self._layer_masks:
                stage_mask = mask & layer_mask
                if stage_mask and stage_mask not in stage_masks[-1:]:
                    stage_masks.append(stage_mask)
        if mask not in stage_masks[-1:]:
            stage_masks.append(mask)
        prefixes = []
        for index, trie in self._tries.items():
            field_mask = self._field_of(mask, index)
            if field_mask:
                prefix_len = mask_to_prefix_len(field_mask, trie.width)
                if prefix_len is not None:
                    prefixes.append((index, prefix_len))
        return _Group(stage_masks, tuple(prefixes), self.schema.field_masks)
