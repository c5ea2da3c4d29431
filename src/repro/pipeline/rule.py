"""PipelineRule: one entry of a vSwitch pipeline match-action table."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..flow.actions import ActionList
from ..flow.match import TernaryMatch

_rule_ids = itertools.count()


@dataclass(frozen=True)
class PipelineRule:
    """An OpenFlow-style rule inside one pipeline table.

    Attributes:
        match: Ternary predicate over the packet headers.
        priority: Higher wins when several rules match.
        actions: Set-field / output / drop actions applied on match.
        next_table: ID of the table the packet proceeds to after this rule's
            actions, or ``None`` when the rule is terminal (the actions must
            then include output/drop/controller).
        rule_id: Globally unique identifier.  Among matching rules of
            equal priority the table's classifier picks the one whose
            mask group it probes first (groups order by best resident
            priority, then age), then the lower id within that group's
            bucket; specificity is never read.
    """

    match: TernaryMatch
    priority: int
    actions: ActionList
    next_table: Optional[int] = None
    rule_id: int = field(default_factory=lambda: next(_rule_ids))

    def __post_init__(self) -> None:
        if self.next_table is None and not self.actions.is_terminal():
            raise ValueError(
                "a rule without a next table must carry a terminal action"
            )
        if self.priority < 0:
            raise ValueError(f"negative priority: {self.priority}")

    def __repr__(self) -> str:
        nxt = "terminal" if self.next_table is None else f"goto {self.next_table}"
        return (
            f"PipelineRule(id={self.rule_id}, prio={self.priority}, "
            f"{self.match!r}, {self.actions!r}, {nxt})"
        )
