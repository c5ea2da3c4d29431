"""PipelineTable: one match-action stage of the vSwitch slow path."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from ..classify.tss import TupleSpaceClassifier
from ..flow.actions import ActionList, Controller
from ..flow.fields import DEFAULT_SCHEMA
from ..flow.key import FlowKey
from ..flow.wildcard import Wildcard
from .rule import PipelineRule


@dataclass
class TableLookup:
    """Result of looking a flow up in one pipeline table.

    Attributes:
        rule: The matched rule, or ``None`` when the table's default fired.
        wildcard: Header bits the lookup examined — the paper's ``W_i``,
            including dependency bits for missed higher-priority rules.
        actions: Actions to apply (the rule's, or the table default's).
        next_table: Where the packet goes next (``None`` = terminal).
        groups_probed: Mask groups the TSS walk probed (feeds the CPU
            cost model).
    """

    rule: Optional[PipelineRule]
    wildcard: Wildcard
    actions: ActionList
    next_table: Optional[int]
    groups_probed: int


class PipelineTable:
    """A priority-ordered flow table with OVS-style dependency unwildcarding.

    Attributes:
        table_id: Numeric ID used in traversals and LTM tags.
        name: Human-readable stage name (e.g. ``"l2_dst"``).
        match_fields: The header fields this stage is *declared* to match —
            the unit of the disjointness analysis (§4.2.2).  Rules installed
            into the table must not match outside this set.
        miss_next_table: Table the packet falls through to when no rule
            matches; ``None`` makes a miss terminal with ``miss_actions``.
        miss_actions: Actions applied on a table miss when terminal
            (defaults to a controller punt, as in OpenFlow).
        owner: The :class:`~repro.pipeline.Pipeline` this table is a
            stage of (``None`` until one takes it); every rule change
            here moves that pipeline's ``generation`` and is recorded
            against this table's id.
    """

    def __init__(
        self,
        table_id: int,
        name: str,
        match_fields: Sequence[str],
        miss_next_table: Optional[int] = None,
        miss_actions: Optional[ActionList] = None,
    ):
        if table_id < 0:
            raise ValueError(f"table id must be non-negative, got {table_id}")
        for field in match_fields:
            DEFAULT_SCHEMA.index_of(field)  # validates
        self.table_id = table_id
        self.name = name
        self.match_fields: Tuple[str, ...] = tuple(match_fields)
        self.field_set = frozenset(self.match_fields)
        self.miss_next_table = miss_next_table
        self.miss_actions = miss_actions or ActionList([Controller()])
        self._classifier: TupleSpaceClassifier[PipelineRule] = (
            TupleSpaceClassifier()
        )
        self.owner = None

    # -- rule management ------------------------------------------------------

    def insert(self, rule: PipelineRule) -> None:
        """Install a rule; it may only match this table's declared fields."""
        extra = set(rule.match.wildcard.fields_matched()) - self.field_set
        if extra:
            raise ValueError(
                f"rule matches fields {sorted(extra)} outside table "
                f"{self.name!r} declared fields {sorted(self.field_set)}"
            )
        self._classifier.insert(rule)
        self._changed()

    def remove(self, rule: PipelineRule) -> None:
        self._classifier.remove(rule)
        self._changed()

    def clear(self) -> None:
        self._classifier.clear()
        self._changed()

    def _changed(self) -> None:
        if self.owner is not None:
            self.owner.rules_changed(self.table_id)

    def __len__(self) -> int:
        return len(self._classifier)

    def __iter__(self) -> Iterator[PipelineRule]:
        return iter(self._classifier)

    @property
    def rules(self) -> Tuple[PipelineRule, ...]:
        return tuple(self._classifier)

    @property
    def mask_group_count(self) -> int:
        return self._classifier.group_count

    # -- lookup ------------------------------------------------------------------

    def lookup(self, flow: FlowKey) -> TableLookup:
        """Match ``flow``, returning the winning rule (or the default) and
        the dependency wildcard ``W_i``."""
        result = self._classifier.lookup(flow)
        if result.rule is not None:
            return TableLookup(
                rule=result.rule,
                wildcard=result.wildcard,
                actions=result.rule.actions,
                next_table=result.rule.next_table,
                groups_probed=result.groups_probed,
            )
        return TableLookup(
            rule=None,
            wildcard=result.wildcard,
            actions=(
                self.miss_actions
                if self.miss_next_table is None
                else ActionList()
            ),
            next_table=self.miss_next_table,
            groups_probed=result.groups_probed,
        )

    def __repr__(self) -> str:
        return (
            f"PipelineTable(id={self.table_id}, name={self.name!r}, "
            f"fields={list(self.match_fields)}, rules={len(self)})"
        )
