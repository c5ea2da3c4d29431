"""Pipeline: the programmable multi-table vSwitch slow path.

Executing a flow through the pipeline yields a :class:`Traversal` — the
trace Gigaflow partitions and caches.  The pipeline is the OVS userspace
forwarding path of Fig. 5a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..flow.actions import ActionList
from ..flow.key import FlowKey
from .rule import PipelineRule
from .table import PipelineTable
from .traversal import Disposition, Traversal, TraversalStep


#: Flows whose traversal :meth:`Pipeline.execute` remembers, oldest
#: forgotten first.  Above every bench workload's flow count (1 500 at
#: most); the memo mostly shares traversals the workload's pilots
#: already hold (``docs/architecture.md``, "Slow-path memo").
MEMO_FLOWS = 4096

#: The table every packet enters the pipeline at, and so the tag every
#: packet enters the Gigaflow cache with: table 0 in all five Table 1
#: pipelines.
ENTRY_TABLE = 0


class PipelineLoopError(RuntimeError):
    """Raised when a flow exceeds the maximum table-lookup depth."""


@dataclass
class ExecutionStats:
    """Aggregate slow-path counters, kept by the pipeline itself."""

    executions: int = 0
    lookups: int = 0
    groups_probed: int = 0

    def record(self, traversal: Traversal, groups: int) -> None:
        self.executions += 1
        self.lookups += len(traversal)
        self.groups_probed += groups


class Pipeline:
    """An ordered collection of :class:`PipelineTable` stages.

    Attributes:
        name: Pipeline identifier (e.g. ``"OLS"``).
        max_depth: Loop guard — OVS caps resubmissions similarly.
        generation: Monotonic counter bumped on every rule change,
            through this pipeline or straight on one of its tables
            (only :meth:`rules_changed` moves it); revalidation compares
            cache-entry generations against it (§4.3.1).

    A flow enters at table :data:`ENTRY_TABLE`, which every pipeline
    must have; only :meth:`replay` starts a walk elsewhere.

    A traversal is a function of the flow and the rule set, so
    :meth:`execute` remembers the ones it walked at the current
    ``generation``, keyed by packed flow, with the groups the walk
    probed; a counted execute of a remembered flow records those
    counts again without walking.  The first execute after a rule
    change forgets them all.  A copy (``copy.deepcopy``, pickle)
    starts with nothing remembered.

    Every traversal it hands out carries the ``generation`` it was
    walked at, and the pipeline records, per table, the generation of
    that table's last rule change: :meth:`unchanged_since` tells
    whether a walk over some tables would still come out the same.
    """

    def __init__(
        self,
        name: str,
        tables: Iterable[PipelineTable],
        max_depth: int = 64,
    ):
        self.name = name
        self.max_depth = max_depth
        self.tables: Dict[int, PipelineTable] = {}
        for table in tables:
            if table.table_id in self.tables:
                raise ValueError(f"duplicate table id {table.table_id}")
            if table.owner is not None:
                raise ValueError(
                    f"table {table.name!r} is already a stage of "
                    f"pipeline {table.owner.name!r}"
                )
            self.tables[table.table_id] = table
        if ENTRY_TABLE not in self.tables:
            raise ValueError(
                f"pipeline {name!r} has no entry table {ENTRY_TABLE}"
            )
        self.stats = ExecutionStats()
        self.generation = 0
        #: table id → the generation its last rule change moved to.
        self._changed_at: Dict[int, int] = dict.fromkeys(self.tables, 0)
        #: packed flow → (traversal, groups probed), walked at
        #: ``_memo_generation``; insertion order is age.
        self._traversal_memo: Dict[int, Tuple[Traversal, int]] = {}
        self._memo_generation = 0
        for table in self.tables.values():
            table.owner = self

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_traversal_memo"] = {}
        return state

    # -- structure -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tables)

    def table(self, table_id: int) -> PipelineTable:
        try:
            return self.tables[table_id]
        except KeyError:
            raise KeyError(
                f"pipeline {self.name!r} has no table {table_id}"
            ) from None

    @property
    def table_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.tables))

    # -- rule management ---------------------------------------------------------------

    def install(self, table_id: int, rule: PipelineRule) -> None:
        if rule.next_table is not None and rule.next_table not in self.tables:
            raise ValueError(
                f"rule jumps to unknown table {rule.next_table}"
            )
        self.table(table_id).insert(rule)

    def remove(self, table_id: int, rule: PipelineRule) -> None:
        self.table(table_id).remove(rule)

    def rules_changed(self, table_id: int) -> None:
        """Called by table ``table_id`` of this pipeline after each rule
        change: the one place ``generation`` moves."""
        self.generation += 1
        self._changed_at[table_id] = self.generation

    def unchanged_since(
        self, table_ids: Iterable[int], generation: int
    ) -> bool:
        """True when no rule of any table in ``table_ids`` changed after
        ``generation``: a walk over just those tables, made at that
        generation, would come out the same now."""
        changed_at = self._changed_at
        for table_id in table_ids:
            if changed_at[table_id] > generation:
                return False
        return True

    # -- execution ---------------------------------------------------------------------

    def execute(self, flow: FlowKey, record_stats: bool = True) -> Traversal:
        """Run ``flow`` through the pipeline and trace the traversal.

        A counted execute (``record_stats``) of a flow already walked at
        this generation returns that walk's traversal and records its
        counts, without looking anything up.  An uncounted one always
        walks, so it can check a cache against the tables; it files
        its walk for the counted executes to come.
        """
        memo = self._traversal_memo
        if self._memo_generation != self.generation:
            memo.clear()
            self._memo_generation = self.generation
        key = flow.packed
        if record_stats:
            filed = memo.get(key)
            if filed is not None:
                self.stats.record(*filed)
                return filed[0]
        steps, disposition, groups = self._walk_through(flow)
        traversal = Traversal(steps, disposition)
        traversal.walked_at(self.generation)
        if record_stats:
            self.stats.record(traversal, groups)
        if key not in memo:
            traversal.remember_slices()
            memo[key] = (traversal, groups)
            if len(memo) > MEMO_FLOWS:
                del memo[next(iter(memo))]
        return traversal

    def disposition_of(self, flow: FlowKey) -> Disposition:
        """How ``flow`` leaves the pipeline: one walk, like an uncounted
        :meth:`execute`, that counts nothing, files nothing and builds
        no :class:`Traversal`.  Raises :class:`PipelineLoopError` as
        :meth:`execute` does."""
        return self._walk_through(flow)[1]

    def _walk_through(self, flow: FlowKey) -> tuple:
        """Walk ``flow`` from the entry table to the end: the steps, the
        disposition and the mask groups probed."""
        steps, disposition, groups, unvisited = self._walk(
            flow, ENTRY_TABLE, self.max_depth
        )
        if unvisited is not None:
            raise PipelineLoopError(
                f"flow exceeded max depth {self.max_depth} in pipeline "
                f"{self.name!r}: path {[s.table_id for s in steps]}"
            )
        return steps, disposition, groups

    def replay(self, flow: FlowKey, table_id: int, length: int) -> Traversal:
        """Re-execute a flow from table ``table_id`` for up to ``length``
        tables — the revalidation primitive of §4.3.1 (sub-traversal
        replays are shorter than full traversals, which is exactly where
        Gigaflow's 2× revalidation speedup comes from).  Always walks,
        and remembers nothing."""
        steps, disposition, _, _ = self._walk(flow, table_id, length)
        return Traversal(steps, disposition)

    def _walk(self, flow: FlowKey, table_id: Optional[int], limit: int) -> tuple:
        """Look ``flow`` up table after table, at most ``limit`` of them.

        Returns the steps, how the walk left the pipeline, the mask groups
        probed, and the table it stopped short of (``None``: ran to the
        end)."""
        steps: List[TraversalStep] = []
        groups = 0
        disposition = Disposition.CONTROLLER
        while table_id is not None and len(steps) < limit:
            lookup = self.table(table_id).lookup(flow)
            groups += lookup.groups_probed
            rule, actions = lookup.rule, lookup.actions
            after = actions.apply(flow)
            steps.append(
                TraversalStep(
                    table_id,
                    rule.rule_id if rule else None,
                    rule.priority if rule else 0,
                    lookup.wildcard,
                    flow,
                    after,
                    actions,
                    lookup.next_table,
                )
            )
            flow = after
            table_id = lookup.next_table
            if table_id is None:
                disposition = _disposition_of(actions)
        return tuple(steps), disposition, groups, table_id


def _disposition_of(actions: ActionList) -> Disposition:
    if actions.output_port() is not None:
        return Disposition.OUTPUT
    if actions.drops():
        return Disposition.DROP
    return Disposition.CONTROLLER
