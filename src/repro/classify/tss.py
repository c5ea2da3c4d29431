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

The classifier runs on the packed form of the header vector laid out
by :data:`~repro.flow.fields.DEFAULT_SCHEMA`, which also fixes the
stage masks and the trie fields: a mask group is one integer, a stage
probe is ``flow.packed & stage_mask in stage_keys``, and un-wildcarding
ORs one integer per probed group.

There is one entry point per kind of search.  The pipeline tables'
:meth:`~TupleSpaceClassifier.lookup` walks the groups in probe order,
because the dependency wildcard it returns is made of what each probed
group examined.  Every cache's :meth:`~TupleSpaceClassifier.climb`
needs the winner and the walk's ``groups_probed`` only, and returns
them as a ``(winner, groups_probed)`` tuple: a per-priority *level
index* finds the walk's winner with one hash per level, and the walk's
``groups_probed`` is computed from where the winner sits.

A classifier keeps only the state its searches read.  The level index
is built by the first climb; the *walk state* — each group's stages
with their key counts, the prefix tries, the probe-order snapshot — by
the first walk.  Updates keep whichever exists and
:meth:`~TupleSpaceClassifier.clear` drops both.  So the caches'
classifiers (climbs only) never pay for a walk's upkeep, and the
pipeline tables' (walks only) never pay for an index.

The classifier is generic over any rule type exposing ``match``
(:class:`~repro.flow.match.TernaryMatch`) and ``priority``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import (
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from ..flow.fields import DEFAULT_SCHEMA
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
TRIE_FIELDS: Tuple[str, ...] = ("ip_src", "ip_dst")

#: Per cumulative stage, the packed mask of the fields in it.
_LAYER_MASKS: Tuple[int, ...] = tuple(
    sum(
        field_mask
        for f, field_mask in zip(DEFAULT_SCHEMA, DEFAULT_SCHEMA.field_masks)
        if f.layer in layers
    )
    for layers in STAGE_LAYERS
)

#: ``(field index, width)`` of each prefix-trie field.
_TRIE_INDICES: Tuple[Tuple[int, int], ...] = tuple(
    (DEFAULT_SCHEMA.index_of(name), DEFAULT_SCHEMA.field(name).width)
    for name in TRIE_FIELDS
)

RuleT = TypeVar("RuleT")

#: One probe step of a group: ``(cumulative stage mask, keys present
#: under it, the bits a miss here examined outside prefix-trie fields,
#: bitset of the prefix-trie fields it examined)``.
_Stage = Tuple[int, Dict[int, object], int, int]


@dataclass
class LookupResult(Generic[RuleT]):
    """Outcome of a walk (:meth:`TupleSpaceClassifier.lookup`).

    Attributes:
        rule: The winning rule, or ``None`` on a miss.
        wildcard: The header bits the walk *examined* — the matched
            rule's own mask plus every bit needed to rule out
            higher-priority rules.
        groups_probed: Mask groups the walk probed (the classic TSS
            cost metric ``O(M)``; feeds the CPU cost model).  A climb
            returns the same count.
    """

    rule: Optional[RuleT]
    wildcard: Wildcard
    groups_probed: int


_group_seq = iter(range(1 << 62))


def _bucket_order(rule) -> Tuple[int, int]:
    """Sort key inside one bucket: best priority first, then oldest."""
    return (-rule.priority, getattr(rule, "rule_id", 0))


class _Group(Generic[RuleT]):
    """All rules sharing one (packed) mask.

    ``stages`` is the walk's probe sequence, ``None`` until the
    classifier first walks (:meth:`TupleSpaceClassifier._build_walk`).
    Every stage but the last keeps a reference-counted dict of the masked
    keys present, so removals never rebuild it; the last stage's mask is
    the group's full mask and its key table is :attr:`rules` itself.
    """

    __slots__ = (
        "stages", "rules", "max_priority", "best_count", "prefixes", "seq",
        "mask",
    )

    def __init__(self, mask: int):
        self.seq = next(_group_seq)
        self.mask = mask
        #: Packed masked value -> rules, best priority first.
        self.rules: Dict[int, List[RuleT]] = {}
        self.max_priority = 0
        #: How many resident rules sit at :attr:`max_priority`: only the
        #: last of them to leave can lower it.
        self.best_count = 0
        self.stages: Optional[Tuple[_Stage, ...]] = None
        #: ``(field index, prefix length)`` of every trie field whose
        #: mask here is prefix-shaped; set with :attr:`stages`.
        self.prefixes: Tuple[Tuple[int, int], ...] = ()

    def recompute_max_priority(self) -> None:
        """Rescan for the best priority and how many rules hold it."""
        best = self.max_priority = max(
            (rules[0].priority for rules in self.rules.values()),
            default=0,
        )
        self.best_count = sum([
            1
            for rules in self.rules.values()
            for rule in rules
            if rule.priority == best
        ])


#: One group under one key of a level: ``[group mask, group rules,
#: group, how many of its buckets are filed under the key]``.
_Cell = List


def _cell_age(cell: _Cell) -> int:
    return cell[2].seq


class _Level:
    """The groups that share one best priority, for the level index.

    ``common`` is the AND of their masks, so a packet's bucket in any of
    them — ``packed & mask == value`` — is filed under ``packed & common``.
    :attr:`cells` maps that key to one cell per group with a bucket
    there, in group age order; a climb probes each such group with one
    hash, so no list is longer than the level has groups.  :attr:`ages`
    is the groups' ``seq``, sorted.
    """

    __slots__ = ("common", "cells", "ages", "groups")

    def __init__(self) -> None:
        self.common = -1
        self.cells: Dict[int, List[_Cell]] = {}
        self.ages: List[int] = []
        self.groups: Dict[int, _Group] = {}

    def add(self, group: _Group) -> bool:
        """File ``group`` (not its buckets); True when ``common`` narrowed."""
        insort(self.ages, group.seq)
        self.groups[group.seq] = group
        common = self.common & group.mask
        narrowed = common != self.common
        self.common = common
        return narrowed

    def discard(self, group: _Group) -> bool:
        """Unfile ``group``; True when ``common`` widened."""
        ages = self.ages
        del ages[bisect_left(ages, group.seq)]
        del self.groups[group.seq]
        common = -1
        for other in self.groups.values():
            common &= other.mask
        widened = common != self.common
        self.common = common
        return widened

    def put(self, group: _Group, canonical: int) -> None:
        key = canonical & self.common
        found = self.cells.get(key)
        if found is None:
            self.cells[key] = [[group.mask, group.rules, group, 1]]
            return
        for cell in found:
            if cell[2] is group:
                cell[3] += 1
                return
        insort(found, [group.mask, group.rules, group, 1], key=_cell_age)

    def pop(self, group: _Group, canonical: int) -> None:
        key = canonical & self.common
        found = self.cells[key]
        for position, cell in enumerate(found):
            if cell[2] is group:
                cell[3] -= 1
                if not cell[3]:
                    del found[position]
                    if not found:
                        del self.cells[key]
                return

    def rehash(self) -> None:
        """Re-file every bucket under the current ``common``."""
        self.cells.clear()
        for group in self.groups.values():
            for canonical in group.rules:
                self.put(group, canonical)


class TupleSpaceClassifier(Generic[RuleT]):
    """A priority-aware TSS classifier with staged lookup and prefix tries."""

    def __init__(self):
        #: Optional telemetry ``(miss, hit)`` counter children
        #: (``Telemetry.tss_observer``), incremented inline after every
        #: search, walk or climb; ``None`` (the default) costs one
        #: attribute check on the hot path.
        self.observer = None
        self._groups: Dict[int, _Group[RuleT]] = {}
        self._size = 0
        #: Level index, best priority -> :class:`_Level`; ``None`` until
        #: the first climb (and again after :meth:`clear`), so a
        #: classifier that only walks never keeps one.
        self._levels: Optional[Dict[int, _Level]] = None
        #: What :meth:`climb` reads, best level first: ``(priority,
        #: common, cells, groups at better levels, ages)`` per level;
        #: rebuilt (with the index, when there is none) by the first
        #: climb after it went dirty.
        self._ladder: List[Tuple[int, int, Dict, int, List[int]]] = []
        self._ladder_dirty = True
        # The walk state: each group's stages and prefixes, and the four
        # below.  Built by the first walk (and again after
        # :meth:`clear`), so a classifier that only climbs never keeps
        # it.
        #: Field index -> the prefixes of that trie field; ``None`` until
        #: the walk state is built.
        self._tries: Optional[Dict[int, PrefixTrie]] = None
        #: Probe order: ``(best priority, stages, rules)`` per group.
        self._ordered: List[Tuple[int, Tuple[_Stage, ...], Dict]] = []
        self._order_dirty = False

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

    def insert(self, rule: RuleT) -> None:
        """Add ``rule``."""
        match = rule.match
        mask = match.wildcard.packed
        group = self._groups.get(mask)
        created = group is None
        if created:
            group = self._groups[mask] = _Group(mask)
        old_priority = group.max_priority
        raised = rule.priority > old_priority
        moved = raised and not created
        levels = self._levels
        if levels is not None and moved:
            self._unindex_group(group, old_priority)
        canonical = match.packed
        bucket = group.rules.get(canonical)
        fresh = bucket is None
        if fresh:
            bucket = group.rules[canonical] = [rule]
        else:
            insort(bucket, rule, key=_bucket_order)
        if raised:
            group.max_priority = rule.priority
            group.best_count = 1
        elif rule.priority == old_priority:
            group.best_count += 1
        self._size += 1
        if self._tries is not None:
            if created:
                self._stage(group)
            self._file_walk(group, canonical)
            if created or raised:
                self._order_dirty = True
        if levels is not None:
            if created or moved:
                self._index_group(group)
            elif fresh:
                levels[group.max_priority].put(group, canonical)

    def remove(self, rule: RuleT) -> None:
        """Drop ``rule``; ``KeyError`` when it is not present."""
        match = rule.match
        mask = match.wildcard.packed
        canonical = match.packed
        group = self._groups.get(mask)
        bucket = group.rules.get(canonical) if group is not None else None
        if not bucket or rule not in bucket:
            raise KeyError(f"rule not present: {rule!r}")
        old_priority = group.max_priority
        levels = self._levels
        bucket.remove(rule)
        if not bucket:
            del group.rules[canonical]
            if levels is not None:
                levels[old_priority].pop(group, canonical)
        self._size -= 1
        emptied = not group.rules
        moved = False
        # Only the last rule at a group's best priority to leave can
        # lower it (and the last rule of a group is its best).
        if not emptied and rule.priority == old_priority:
            group.best_count -= 1
            if not group.best_count:
                group.recompute_max_priority()
                moved = group.max_priority != old_priority
        if self._tries is not None:
            self._unfile_walk(group, canonical)
            if emptied or moved:
                self._order_dirty = True
        if emptied:
            del self._groups[mask]
            if levels is not None:
                self._unindex_group(group, old_priority)
        elif moved and levels is not None:
            self._unindex_group(group, old_priority)
            self._index_group(group)

    def clear(self) -> None:
        self._groups.clear()
        self._size = 0
        self._levels = None
        self._ladder = []
        self._ladder_dirty = True
        self._tries = None
        self._ordered = []

    # -- lookup --------------------------------------------------------------------

    def lookup(self, flow: FlowKey) -> LookupResult[RuleT]:
        """Find the highest-priority matching rule and the dependency
        wildcard: the union of the matched rule's mask and the bits
        examined while ruling out every group that could have held a
        higher-priority match — for a group that missed at stage *s*,
        the cumulative stage-*s* mask; for one that hit, its full mask.
        For prefix-shaped trie fields the (tight) trie mask replaces the
        raw field mask.  This walks the groups in probe order; the first
        walk builds the walk state.  The pipeline tables search this
        way; a search that needs no wildcard is :meth:`climb`.
        """
        if self._tries is None:
            self._build_walk()
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
            examined |= stage[2]
            trie_bits |= stage[3]

        if trie_bits:
            values = flow.values
            shifts = DEFAULT_SCHEMA.shifts
            for index, trie in self._tries.items():
                if trie_bits >> index & 1:
                    examined |= trie.mask_for(values[index]) << shifts[index]
        observer = self.observer
        if observer is not None:
            observer[1 if best is not None else 0].value += 1
        return LookupResult(
            best, Wildcard.from_packed(examined), probed
        )

    def climb(self, packed: int) -> Tuple[Optional[RuleT], int]:
        """The walk's winner and ``groups_probed`` for the packed flow
        ``packed``, one hash per priority level — the search every cache
        makes, which needs no wildcard.  The first climb builds the
        level index.

        That hash yields the level's groups holding a bucket that agrees
        with the packet on ``common``; one more hash each finds the
        packet's bucket there, if any.  Levels are visited best first
        and the climb stops at the first whose priority does not exceed
        the winner's, as the walk stops at the first such group.  Ties
        go to the earlier level, then to the older group (cell lists are
        in age order), as in the walk.  The walk would have probed every
        group of a better level than the winner's priority ``p`` — all
        of them, on a miss — plus, when the winning group's own level is
        ``p``, the groups of that level up to and including it.
        """
        if self._ladder_dirty:
            self._build_ladder()
        best: Optional[RuleT] = None
        best_priority = -1
        won = None
        probed = len(self._groups)
        for priority, common, cells, above, ages in self._ladder:
            if priority <= best_priority:
                probed = above
                break
            found = cells.get(packed & common)
            if found is not None:
                for mask, rules, group, _ in found:
                    bucket = rules.get(packed & mask)
                    if bucket is not None:
                        candidate = bucket[0]
                        if candidate.priority > best_priority:
                            best = candidate
                            best_priority = candidate.priority
                            won = (group, above, ages)
        if won is not None and won[0].max_priority == best_priority:
            group, above, ages = won
            probed = above + bisect_left(ages, group.seq) + 1
        observer = self.observer
        if observer is not None:
            observer[1 if best is not None else 0].value += 1
        return best, probed

    # -- internals --------------------------------------------------------------------

    def _field_of(self, packed: int, index: int) -> int:
        return (
            (packed >> DEFAULT_SCHEMA.shifts[index])
            & DEFAULT_SCHEMA.full_masks[index]
        )

    def _build_walk(self) -> None:
        """Build the walk state from the resident rules."""
        self._tries = {
            index: PrefixTrie(width) for index, width in _TRIE_INDICES
        }
        for group in self._groups.values():
            self._stage(group)
            for canonical, bucket in group.rules.items():
                for _ in bucket:
                    self._file_walk(group, canonical)
        # The probe-order snapshot holds each group's stages.
        self._order_dirty = True

    def _stage(self, group: _Group[RuleT]) -> None:
        """Work out ``group``'s probe stages, key counts empty, and its
        trie prefixes."""
        mask = group.mask
        stage_masks: List[int] = []
        for layer_mask in _LAYER_MASKS:
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
        field_masks = DEFAULT_SCHEMA.field_masks
        stages: List[_Stage] = []
        for stage_mask in stage_masks:
            trie_bits = trie_mask = 0
            for index, _ in prefixes:
                if stage_mask & field_masks[index]:
                    trie_bits |= 1 << index
                    trie_mask |= field_masks[index]
            keys = group.rules if stage_mask == mask else {}
            stages.append((stage_mask, keys, stage_mask & ~trie_mask, trie_bits))
        group.stages = tuple(stages)
        group.prefixes = tuple(prefixes)

    def _file_walk(self, group: _Group[RuleT], canonical: int) -> None:
        """Count one more rule under ``canonical`` in ``group``'s early
        stages and in the tries."""
        for stage_mask, keys, _, _ in group.stages[:-1]:
            key = canonical & stage_mask
            keys[key] = keys.get(key, 0) + 1
        tries = self._tries
        for index, prefix_len in group.prefixes:
            tries[index].insert(self._field_of(canonical, index), prefix_len)

    def _unfile_walk(self, group: _Group[RuleT], canonical: int) -> None:
        """Undo one :meth:`_file_walk`: a stage key leaves once no rule
        still maps to it (the refcount)."""
        for stage_mask, keys, _, _ in group.stages[:-1]:
            key = canonical & stage_mask
            remaining = keys[key] - 1
            if remaining:
                keys[key] = remaining
            else:
                del keys[key]
        tries = self._tries
        for index, prefix_len in group.prefixes:
            tries[index].remove(self._field_of(canonical, index), prefix_len)

    def _build_ladder(self) -> None:
        """Rebuild what :meth:`climb` reads, building the level index
        first when there is none."""
        levels = self._levels
        if levels is None:
            levels = self._levels = {}
            for group in self._groups.values():
                self._index_group(group)
        ladder = []
        above = 0
        for priority in sorted(levels, reverse=True):
            level = levels[priority]
            ladder.append(
                (priority, level.common, level.cells, above, level.ages)
            )
            above += len(level.ages)
        self._ladder = ladder
        self._ladder_dirty = False

    def _index_group(self, group: _Group[RuleT]) -> None:
        """File ``group`` and its buckets at its best priority's level."""
        levels = self._levels
        level = levels.get(group.max_priority)
        if level is None:
            level = levels[group.max_priority] = _Level()
        if level.add(group):
            level.rehash()
        else:
            for canonical in group.rules:
                level.put(group, canonical)
        self._ladder_dirty = True

    def _unindex_group(self, group: _Group[RuleT], priority: int) -> None:
        """Take ``group`` and its buckets out of level ``priority``."""
        levels = self._levels
        level = levels[priority]
        if level.discard(group):
            if level.groups:
                level.rehash()
            else:
                del levels[priority]
        else:
            for canonical in group.rules:
                level.pop(group, canonical)
        self._ladder_dirty = True
