"""Engine-side churn runtime: applies schedules at exact sim-time deadlines.

:class:`ChurnRuntime` is the bridge between a declarative
:class:`~repro.workload.churn.ChurnSchedule` and the packet kernel
(:class:`~repro.sim.engine.PacketKernel`).  It owns two deadline
streams:

* **Events** — each schedule entry fires exactly at its timestamp,
  mutating the pipeline (and bumping its generation);
* **Revalidation ticks** — every engine ``sweep_interval`` seconds an
  :class:`~repro.core.revalidation.IncrementalRevalidator` checks up to
  ``reval_budget`` stale entries, the OVS-revalidator-style catch-up
  whose residue is the *revalidation backlog*.

Both streams are driven purely by simulated packet time:
:meth:`PacketKernel.advance <repro.sim.engine.PacketKernel.advance>`
runs ``while now >= churn.deadline: churn.advance(churn.deadline)``
before the packet that crossed the deadline is looked up, after idle
sweeps and telemetry snapshots (the fixed cadence-firing order).
Because deadlines and firing order depend only on timestamps — never on
chunk or micro-batch boundaries — a schedule replays bit-identically
whichever driver feeds the kernel, which the differential battery in
``tests/test_serve_differential.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.revalidation import IncrementalRevalidator
from ..pipeline.pipeline import Pipeline
from ..workload.churn import ChurnSchedule

__all__ = ["ChurnConfig", "ChurnRuntime"]

_INF = float("inf")


@dataclass
class ChurnConfig:
    """How a run consumes a churn schedule.

    Attributes:
        schedule: The events to apply.
        reval_budget: Stale entries checked per tick; ``0`` drains the
            whole backlog every tick (full-pass revalidation on a
            cadence).  A finite budget is what makes the backlog a real
            signal: it grows when churn outpaces the budget and drains
            when the control plane quiets down.
        switches: Fabric targeting (:mod:`repro.net`): when set, only
            the named switches apply the schedule — the others run
            churn-free, modelling control-plane updates that hit one
            tier of a fabric.  ``None`` (the default) targets every
            switch; the single-switch engine ignores the field.
    """

    schedule: ChurnSchedule
    reval_budget: int = 64
    switches: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.reval_budget < 0:
            raise ValueError("reval_budget must be non-negative")
        if self.switches is not None:
            self.switches = tuple(self.switches)
            if not self.switches:
                raise ValueError(
                    "switches must name at least one switch (use None "
                    "to target all switches)"
                )


class ChurnRuntime:
    """Per-run churn state: pending events, reval cadence, counters.

    Built fresh by each :class:`~repro.sim.engine.PacketKernel`
    (exposed as ``simulator.churn``), so one :class:`ChurnConfig` can
    parameterise many runs.  ``advance`` must be called with the
    current :attr:`deadline` and strictly increases it, so the kernel's
    ``while now >= deadline`` loop always terminates.  Its counters
    are the one home of the run's churn counts: :meth:`digest` reads
    them, and an attached telemetry hub folds them
    (:meth:`~repro.obs.telemetry.Telemetry.attach_churn`).
    """

    def __init__(
        self,
        config: ChurnConfig,
        pipeline: Pipeline,
        cache,
        sweep_interval: float,
    ):
        self.config = config
        self.pipeline = pipeline
        self.revalidator = IncrementalRevalidator(pipeline, cache)
        self._interval = sweep_interval
        self._events = config.schedule.events
        self._next_index = 0
        self._next_event = (
            self._events[0].at if self._events else _INF
        )
        self._next_tick = sweep_interval
        #: Earliest pending deadline (event or reval tick).
        self.deadline = min(self._next_event, self._next_tick)
        #: Rules installed by events, keyed for later removal.
        self._installed: Dict[str, Tuple[int, object]] = {}

        self.events_applied = 0
        #: Applied events per kind, in the order each kind first fired.
        self.events_by_kind: Dict[str, int] = {}
        self.rule_ops: Dict[str, int] = {"install": 0, "remove": 0}
        self.reval_ticks = 0
        self.backlog = 0
        self.backlog_peak = 0

    def advance(self, t: float) -> None:
        """Fire everything due at ``t`` (events first, then a reval tick)."""
        if t >= self._next_event:
            events = self._events
            index = self._next_index
            while index < len(events) and events[index].at <= t:
                event = events[index]
                index += 1
                outcome = event.apply(self.pipeline, self._installed)
                self.events_applied += 1
                by_kind = self.events_by_kind
                by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
                self.rule_ops["install"] += outcome.installed
                self.rule_ops["remove"] += outcome.removed
            self._next_index = index
            self._next_event = (
                events[index].at if index < len(events) else _INF
            )
        if t >= self._next_tick:
            report, backlog = self.revalidator.process(
                self._next_tick, self.config.reval_budget
            )
            checked_plus_backlog = report.entries_checked + backlog
            if checked_plus_backlog > self.backlog_peak:
                self.backlog_peak = checked_plus_backlog
            self.backlog = backlog
            self.reval_ticks += 1
            self._next_tick += self._interval
        self.deadline = min(self._next_event, self._next_tick)

    @property
    def pending_events(self) -> int:
        return len(self._events) - self._next_index

    def digest(self) -> dict:
        """Compact per-run churn summary (``repro serve`` prints it)."""
        reval = self.revalidator
        return {
            "events": self.events_applied,
            "events_by_kind": dict(self.events_by_kind),
            "rule_ops": dict(self.rule_ops),
            "pending_events": self.pending_events,
            "reval_ticks": self.reval_ticks,
            "reval_checked": reval.total_checked,
            "reval_evicted": reval.total_evicted,
            "reval_lookups": reval.total_lookups,
            "backlog": self.backlog,
            "backlog_peak": self.backlog_peak,
        }
