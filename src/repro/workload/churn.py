"""Control-plane churn scenarios: rule updates applied while traffic flows.

A live vSwitch is never just replaying traffic — the control plane keeps
rewriting the pipeline underneath the cache: operators push ACL denies,
orchestrators insert and withdraw per-tenant rules in storms, and policy
engines re-rank rule priorities.  Every such mutation bumps
:attr:`~repro.pipeline.pipeline.Pipeline.generation` and strands cached
entries derived from the old rules until revalidation catches up (§4.3).

This module is the *declarative* half of that story: a
:class:`ChurnSchedule` is an immutable, time-sorted list of
:class:`ChurnEvent` objects that the engine's churn runtime
(:mod:`repro.sim.churn`) applies at exact simulated-time deadlines.
Events are semantic specs, not captured rule objects — applying the same
schedule to two independently built (identically seeded) pipelines
produces identical mutations, which is what lets the differential tests
replay one schedule through the streaming, columnar and serving drivers
and demand bit-identical results.

Scenario builders cover the three churn families the serving mode
measures:

* :func:`acl_update_schedule` — the operator-pushed deny of
  ``examples/acl_policy_update.py``, grown into a schedulable event
  (optionally reverted later);
* :func:`insert_delete_storm` — a burst of per-flow deny rules installed
  and withdrawn on a fixed cadence (the orchestrator-churn pattern);
* :func:`priority_shuffle_schedule` — seeded priority permutations
  within a table, re-ranking rules without changing the rule set.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..flow.actions import ActionList, Drop
from ..flow.match import TernaryMatch
from ..pipeline.pipeline import Pipeline
from ..pipeline.rule import PipelineRule

__all__ = [
    "ChurnEvent",
    "ChurnOutcome",
    "ChurnSchedule",
    "InsertRule",
    "RemoveRule",
    "RuleSpec",
    "ShufflePriorities",
    "acl_update_schedule",
    "insert_delete_storm",
    "priority_shuffle_schedule",
]


@dataclass(frozen=True)
class RuleSpec:
    """A declarative deny/terminal rule, materialised fresh per apply.

    Holding field/mask tuples instead of a built
    :class:`~repro.pipeline.rule.PipelineRule` keeps specs trivially
    picklable and re-usable across pipelines: each
    :meth:`build` call constructs a new rule object (with its own
    ``rule_id``), so one schedule can be applied to many independent
    pipeline instances without sharing mutable state.
    """

    table_id: int
    fields: Tuple[Tuple[str, int], ...]
    masks: Tuple[Tuple[str, int], ...] = ()
    priority: int = 10_000

    def build(self) -> PipelineRule:
        return PipelineRule(
            match=TernaryMatch.from_fields(
                dict(self.fields),
                masks=dict(self.masks) if self.masks else None,
            ),
            priority=self.priority,
            actions=ActionList([Drop()]),
        )


@dataclass
class ChurnOutcome:
    """What one applied event did to the pipeline."""

    installed: int = 0
    removed: int = 0


@dataclass(frozen=True)
class ChurnEvent:
    """Base event: something the control plane does at time ``at``."""

    at: float

    kind: str = dataclasses.field(default="event", init=False, repr=False)

    def apply(
        self, pipeline: Pipeline, installed: Dict[str, Tuple[int, PipelineRule]]
    ) -> ChurnOutcome:
        raise NotImplementedError


@dataclass(frozen=True)
class InsertRule(ChurnEvent):
    """Install ``spec`` and remember the built rule under ``key``."""

    spec: RuleSpec = None  # type: ignore[assignment]
    key: str = ""
    label: str = "insert"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", self.label)

    def apply(self, pipeline, installed) -> ChurnOutcome:
        if self.key in installed:
            raise ValueError(f"churn key {self.key!r} already installed")
        rule = self.spec.build()
        pipeline.install(self.spec.table_id, rule)
        installed[self.key] = (self.spec.table_id, rule)
        return ChurnOutcome(installed=1)


@dataclass(frozen=True)
class RemoveRule(ChurnEvent):
    """Withdraw the rule a prior :class:`InsertRule` installed as ``key``."""

    key: str = ""
    label: str = "delete"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", self.label)

    def apply(self, pipeline, installed) -> ChurnOutcome:
        try:
            table_id, rule = installed.pop(self.key)
        except KeyError:
            raise ValueError(
                f"churn key {self.key!r} was never installed (or already "
                "removed) — RemoveRule must follow its InsertRule"
            ) from None
        pipeline.remove(table_id, rule)
        return ChurnOutcome(removed=1)


@dataclass(frozen=True)
class ShufflePriorities(ChurnEvent):
    """Permute rule priorities within one table (seeded, in place).

    Priorities are only permuted *within groups of rules sharing the
    same* ``next_table``, so the table graph a traversal can take is
    preserved — the shuffle re-ranks which rule wins, it never opens a
    dead-end path that would strand flows at the controller.  Rules are
    ordered by insertion (``rule_id``) before shuffling, which is stable
    across identically built pipelines even though absolute ids differ.
    """

    table_id: int = 0
    seed: int = 0

    kind: str = dataclasses.field(default="shuffle", init=False, repr=False)

    def apply(self, pipeline, installed) -> ChurnOutcome:
        table = pipeline.tables[self.table_id]
        rng = random.Random(self.seed)
        by_next: Dict[object, List[PipelineRule]] = {}
        for rule in sorted(table, key=lambda r: r.rule_id):
            by_next.setdefault(rule.next_table, []).append(rule)
        outcome = ChurnOutcome()
        groups = sorted(
            by_next.items(),
            key=lambda item: (item[0] is None, item[0] or 0),
        )
        for _next_table, group in groups:
            priorities = [rule.priority for rule in group]
            rng.shuffle(priorities)
            for rule, priority in zip(group, priorities):
                if priority == rule.priority:
                    continue
                pipeline.remove(self.table_id, rule)
                replacement = dataclasses.replace(rule, priority=priority)
                pipeline.install(self.table_id, replacement)
                outcome.installed += 1
                outcome.removed += 1
                # Re-ranking replaces the rule *object*: keep churn
                # handles pointing at the live replacement so a later
                # RemoveRule withdraws the re-ranked rule, not a stale
                # reference.
                for key, (table_id, held) in installed.items():
                    if held is rule:
                        installed[key] = (table_id, replacement)
                        break
        return outcome


class ChurnSchedule:
    """A time-sorted, immutable sequence of churn events.

    Events sharing a timestamp apply in build order (the sort is
    stable), so "remove A then insert B at t=10" means exactly that in
    every loop that replays the schedule.
    """

    def __init__(self, events: Iterable[ChurnEvent]):
        self.events: Tuple[ChurnEvent, ...] = tuple(
            sorted(events, key=lambda event: event.at)
        )
        for event in self.events:
            if event.at < 0:
                raise ValueError(
                    f"churn event time must be non-negative: {event!r}"
                )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def merged_with(self, other: "ChurnSchedule") -> "ChurnSchedule":
        return ChurnSchedule(self.events + other.events)


# =============================================================================
# Scenario builders


def acl_update_schedule(
    table_id: int,
    at: float,
    *,
    field: str = "ip_src",
    value: int = 0x0A000000,
    mask: Optional[int] = None,
    priority: int = 10_000,
    revert_at: Optional[float] = None,
    key: str = "acl-deny",
) -> ChurnSchedule:
    """An operator pushes a deny rule (and optionally withdraws it later).

    The schedulable form of ``examples/acl_policy_update.py``'s
    "deny-all-to-10.0.0.0/9" push: one high-priority terminal drop
    installed into the ACL stage at ``at``.  ``mask=None`` means an
    exact match on ``value``.
    """
    spec = RuleSpec(
        table_id=table_id,
        fields=((field, value),),
        masks=((field, mask),) if mask is not None else (),
        priority=priority,
    )
    events: List[ChurnEvent] = [
        InsertRule(at=at, spec=spec, key=key, label="acl_update")
    ]
    if revert_at is not None:
        if revert_at <= at:
            raise ValueError("revert_at must come after the install")
        events.append(RemoveRule(at=revert_at, key=key, label="acl_revert"))
    return ChurnSchedule(events)


def insert_delete_storm(
    flows: Sequence,
    table_id: int,
    *,
    start: float,
    count: int,
    gap: float,
    hold: float,
    seed: int = 0,
    field: str = "ip_src",
    mask: Optional[int] = None,
    priority: int = 10_000,
) -> ChurnSchedule:
    """A storm of per-flow deny rules, each installed then withdrawn.

    ``flows`` is any sequence of :class:`~repro.flow.key.FlowKey` (or
    pilot objects exposing ``.flow``); the storm samples ``count``
    distinct ``field`` values from it and, every ``gap`` seconds,
    installs a deny that it removes ``hold`` seconds later.  ``mask``
    widens each deny from an exact match to a prefix (values are
    masked before deduplication, so a ``/16`` storm denies ``count``
    distinct subnets) — the per-tenant-prefix pattern orchestrators
    push.  Each install *and* each delete strands the matching cached
    entries, so a storm produces two revalidation waves per rule — the
    insert/delete churn pattern hardware offload engines are judged by.
    """
    if count <= 0:
        raise ValueError("storm count must be positive")
    if gap <= 0 or hold <= 0:
        raise ValueError("storm gap and hold must be positive")
    values = sorted(
        {
            (f.flow if hasattr(f, "flow") else f).get(field)
            & (mask if mask is not None else ~0)
            for f in flows
        }
    )
    if not values:
        raise ValueError("no flows to build a storm against")
    rng = random.Random(seed)
    if count < len(values):
        values = rng.sample(values, count)
    else:
        values = [values[i % len(values)] for i in range(count)]
    masks = ((field, mask),) if mask is not None else ()
    events: List[ChurnEvent] = []
    for i, value in enumerate(values):
        at = start + i * gap
        key = f"storm-{i}"
        spec = RuleSpec(
            table_id=table_id,
            fields=((field, value),),
            masks=masks,
            priority=priority + (i % 16),
        )
        events.append(InsertRule(at=at, spec=spec, key=key))
        events.append(RemoveRule(at=at + hold, key=key))
    return ChurnSchedule(events)


def priority_shuffle_schedule(
    table_id: int,
    times: Sequence[float],
    *,
    seed: int = 0,
) -> ChurnSchedule:
    """Seeded priority re-rankings of one table at each time in ``times``."""
    return ChurnSchedule(
        ShufflePriorities(at=at, table_id=table_id, seed=seed + i)
        for i, at in enumerate(times)
    )
