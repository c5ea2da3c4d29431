"""Traversals and sub-traversals (the paper's Fig. 1 and §4.2.1).

A *traversal* is the complete linear sequence of table lookups a flow takes
through the vSwitch pipeline: the table IDs ``T``, the evolving flow ``F``,
and the per-table dependency wildcards ``W``.  A *sub-traversal* is a
contiguous slice of a traversal; it is the unit Gigaflow caches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

from ..flow.actions import ActionList
from ..flow.key import FlowKey
from ..flow.match import TernaryMatch
from ..flow.wildcard import Wildcard


#: The tail of a slice that does not end its traversal: its commit
#: carries no terminal action.
_NO_TAIL = ActionList()


class Disposition(enum.Enum):
    """How a traversal left the pipeline."""

    OUTPUT = "output"
    DROP = "drop"
    CONTROLLER = "controller"


class TraversalStep(NamedTuple):
    """One table lookup inside a traversal.  A tuple, because a
    slow-path walk builds one per table visited.

    Attributes:
        table_id: The pipeline table looked up (``T_i``).
        rule_id: ID of the matched rule, or ``None`` for a default-fired miss.
        rule_priority: Priority of the matched rule (0 for default).
        wildcard: Header bits examined, including dependency bits (``W_i``),
            expressed relative to the flow *as seen at this table*.
        flow_before: The flow entering the table (``F^{i-1}``).
        flow_after: The flow after this table's actions (``F^i``).
        actions: The actions the table applied.
        next_table: The following table ID, ``None`` when terminal.
    """

    table_id: int
    rule_id: Optional[int]
    rule_priority: int
    wildcard: Wildcard
    flow_before: FlowKey
    flow_after: FlowKey
    actions: ActionList
    next_table: Optional[int]


@dataclass(frozen=True)
class Traversal:
    """A complete trace of one slow-path execution: ``<T, F, W>``.

    A traversal the pipeline remembers (:meth:`remember_slices`) keeps
    each slice's :meth:`slice_entry`, so installing it again derives
    nothing; any other derives afresh on every call.

    :attr:`generation` is the pipeline generation the walk was made at
    (``None`` for a traversal no pipeline walked); cache entries built
    from it are stamped with it and with their slice of
    :attr:`table_ids`, for revalidation.
    """

    steps: Tuple[TraversalStep, ...]
    disposition: Disposition
    # Not dataclass fields, so they take no part in equality, hashing
    # or repr.  ``_slices``: (start, stop) → its :meth:`slice_entry`;
    # ``_table_ids`` / ``_boundary_bits``: :attr:`table_ids` /
    # :attr:`boundary_bits`, once worked out.
    _slices = None
    generation = None
    _table_ids = None
    _boundary_bits = None

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a traversal needs at least one step")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def initial_flow(self) -> FlowKey:
        return self.steps[0].flow_before

    @property
    def final_flow(self) -> FlowKey:
        return self.steps[-1].flow_after

    @property
    def table_ids(self) -> Tuple[int, ...]:
        """The table-ID path ``T`` (the traversal's shape)."""
        ids = self._table_ids
        if ids is None:
            ids = tuple([step.table_id for step in self.steps])
            object.__setattr__(self, "_table_ids", ids)
        return ids

    @property
    def boundary_bits(self) -> int:
        """The disjointness boundaries (§4.2.2) as a bitset: bit ``i`` is
        set when steps ``i`` and ``i+1`` match disjoint fields."""
        bits = self._boundary_bits
        if bits is None:
            fields = [step.wildcard.field_bits for step in self.steps]
            bits = 0
            for i in range(len(fields) - 1):
                if not fields[i] & fields[i + 1]:
                    bits |= 1 << i
            object.__setattr__(self, "_boundary_bits", bits)
        return bits

    def megaflow_wildcard(self) -> Wildcard:
        """The single-rule wildcard Megaflow would cache: the union of every
        ``W_i``, dropping contributions from fields already rewritten by an
        earlier action (those depend on the pipeline, not the packet)."""
        return union_wildcards(self.steps)

    def walked_at(self, generation: int) -> None:
        """Stamp the pipeline generation this traversal was walked at,
        and work out its :attr:`table_ids` while the walk is being
        paid for: every cache entry built from it is stamped with its
        slice of them."""
        object.__setattr__(self, "generation", generation)
        object.__setattr__(
            self, "_table_ids", tuple([step.table_id for step in self.steps])
        )

    def remember_slices(self) -> None:
        """Keep every :meth:`slice_entry` computed from now on."""
        object.__setattr__(self, "_slices", {})

    def slice_entry(self, start: int, stop: int) -> tuple:
        """Everything a cache entry for ``steps[start:stop]`` is derived
        from, as ``(match, commit, tag, priority, next table, entry
        flow, path)``: the match is the entry flow masked by the
        slice's :func:`union_wildcards`; the commit is the rewrites
        from entry to exit flow plus, for a slice that ends the
        traversal, the terminal actions (§4.2.3); the tag is the
        slice's first table id, the priority its length, the next
        table the one after it (``None`` when it ends the traversal)
        and the path its table ids.  The one place a slice is
        derived; a remembered traversal derives each slice once."""
        slices = self._slices
        if slices is not None:
            derived = slices.get((start, stop))
            if derived is not None:
                return derived
        all_steps = self.steps
        steps = all_steps[start:stop]
        first = steps[0]
        entry_flow = first.flow_before
        last = steps[-1]
        terminal = stop == len(all_steps)
        ids = self._table_ids
        if ids is None:
            ids = self.table_ids
        derived = (
            TernaryMatch(entry_flow, union_wildcards(steps)),
            ActionList.commit(
                entry_flow,
                last.flow_after,
                last.actions if terminal else _NO_TAIL,
            ),
            first.table_id,
            stop - start,
            last.next_table,
            entry_flow,
            ids[start:stop],
        )
        if slices is not None:
            slices[start, stop] = derived
        return derived

    def sub(self, start: int, stop: int) -> "SubTraversal":
        """The sub-traversal covering ``steps[start:stop]``."""
        return SubTraversal(self, start, stop)

    def partitions_of(
        self, boundaries: Sequence[int]
    ) -> Tuple["SubTraversal", ...]:
        """Split at the given interior boundary indices (sorted, exclusive).

        ``boundaries=[2, 4]`` over 6 steps yields slices [0:2], [2:4], [4:6].
        """
        cuts = (0, *boundaries, len(self.steps))
        # A boundary out of order or out of range fails a slice's own
        # bounds check.
        return tuple([
            SubTraversal(self, left, right)
            for left, right in zip(cuts, cuts[1:])
        ])


class SubTraversal:
    """A contiguous slice of a traversal — Gigaflow's caching unit."""

    __slots__ = ("traversal", "start", "stop")

    def __init__(self, traversal: Traversal, start: int, stop: int):
        if not 0 <= start < stop <= len(traversal.steps):
            raise ValueError(
                f"bad sub-traversal bounds [{start}:{stop}] over "
                f"{len(traversal.steps)} steps"
            )
        self.traversal = traversal
        self.start = start
        self.stop = stop

    # -- structure ---------------------------------------------------------------

    @property
    def steps(self) -> Tuple[TraversalStep, ...]:
        return self.traversal.steps[self.start : self.stop]

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def length(self) -> int:
        """Number of pipeline tables spanned — the LTM priority ``ρ``."""
        return self.stop - self.start

    @property
    def start_table(self) -> int:
        """ID of the first table — the LTM tag ``τ`` this rule matches."""
        return self.traversal.steps[self.start].table_id

    @property
    def next_table(self) -> Optional[int]:
        """Expected table after the slice — the tag the rule advances to
        (``None`` when the slice ends the traversal)."""
        return self.traversal.steps[self.stop - 1].next_table

    @property
    def is_terminal(self) -> bool:
        return self.stop == len(self.traversal.steps)

    # -- caching-relevant views -----------------------------------------------------

    def effective_wildcard(self) -> Wildcard:
        """The ``ω_k = ∪ W_i`` of §4.2.3, scoped to this slice: masks of
        fields overwritten earlier *within the slice* do not propagate."""
        return union_wildcards(self.steps)

    def field_set(self) -> frozenset:
        """Fields this sub-traversal matches on (disjointness unit)."""
        return self.effective_wildcard().field_set()

    def __repr__(self) -> str:
        return (
            f"SubTraversal(tables={[s.table_id for s in self.steps]}, "
            f"tag={self.start_table}, next={self.next_table})"
        )


def union_wildcards(steps: Sequence[TraversalStep]) -> Wildcard:
    """Union per-step wildcards, masking out fields rewritten by earlier
    steps in the sequence (their later values derive from actions, not from
    the original packet)."""
    if not steps:
        raise ValueError("cannot union zero steps")
    packed = 0
    rewritten = 0  # packed mask of the fields earlier steps rewrote
    for step in steps:
        packed |= step.wildcard.packed & ~rewritten
        # ActionList.rewrite_mask() without its frame: a walked step's
        # actions were resolved when the walk applied them.
        actions = step.actions
        mask = actions._rewrites
        rewritten |= mask if mask is not None else actions.rewrite_mask()
    return Wildcard.from_packed(packed)
