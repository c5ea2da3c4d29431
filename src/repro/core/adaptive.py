"""Traffic-profile-guided Gigaflow (§7, "Limitations & Future Work").

The paper notes that in low-locality environments Gigaflow may
underperform Megaflow because it relies on the pipeline alone to find
sharing opportunities, and proposes profile-guided optimisation: sample
the traffic, and when sub-traversal sharing is scarce, fall back to
Megaflow-style (single-segment) entries to preserve baseline behaviour.

:class:`AdaptiveGigaflowCache` implements that proposal.  The mode
state itself — which partitioner is active, the probe cadence while in
Megaflow mode, and the per-window sharing estimate — lives in a
:class:`ModeGovernor`, the one place the disjoint↔Megaflow decision is
made: it rolls its own install windows and applies the hysteresis
thresholds whatever drives the cache.  It is the repository's only
adaptive mechanism; a switch is reported to an attached telemetry hub by
the install that caused it (``mode_switch`` event,
``repro_mode_switches_total``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..pipeline.traversal import Traversal
from .gigaflow import GigaflowCache, InstallOutcome
from .partition import disjoint_partition, megaflow_partition


#: What a switch is reported as, indexed by ``megaflow_mode``.
MODE_NAMES = ("disjoint", "megaflow")


@dataclass
class AdaptiveConfig:
    """Hysteresis knobs for profile-guided mode switching.

    Attributes:
        window: Installs per observation window.
        low_watermark: Switch to Megaflow mode when the window's sharing
            rate (reused rules / generated rules) falls below this.
        high_watermark: Switch back to disjoint partitioning when the
            probe sharing rate rises above this.
        probe_fraction: While in Megaflow mode, this fraction of installs
            is still partitioned (the paper's periodic sampling) so the
            cache can detect returning locality.
    """

    window: int = 200
    low_watermark: float = 0.25
    high_watermark: float = 0.40
    probe_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_watermark <= self.high_watermark <= 1.0:
            raise ValueError(
                "need 0 <= low_watermark <= high_watermark <= 1"
            )
        if self.window < 1:
            raise ValueError("window must be positive")
        if not 0.0 < self.probe_fraction <= 1.0:
            raise ValueError("probe_fraction must be in (0, 1]")


class ModeGovernor:
    """The partitioner-mode state machine: the only §7 mode decider.

    Attributes:
        megaflow_mode: ``True`` while installs default to single-segment
            (Megaflow-style) entries.
        mode_switches: Hysteretic transitions taken via :meth:`set_mode`.
    """

    def __init__(self, config: AdaptiveConfig):
        self.config = config
        self.megaflow_mode = False
        self.mode_switches = 0
        self._window_generated = 0
        self._window_reused = 0
        self._probe_installs = 0
        self._probes_done = 0
        self._probe_pending = False

    # -- probe cadence -----------------------------------------------------------

    def next_install_partitions(self) -> bool:
        """Whether the next install should run the disjoint partitioner.

        In disjoint mode every install partitions.  In Megaflow mode a
        probe fires whenever the realised probe count falls behind
        ``floor(installs × probe_fraction)``, so the realised rate
        equals the requested fraction exactly (the old
        ``installs % round(1/fraction)`` cadence distorted it — 0.3
        became every-3rd ≈ 0.33 — and skipped the first period entirely
        after a mode switch).  Integer bookkeeping, not a float
        accumulator: repeated float adds drift and eventually skip a
        probe.
        """
        if not self.megaflow_mode:
            return True
        if self._probe_pending:
            self._probe_pending = False
            return True
        self._probe_installs += 1
        expected = int(
            self._probe_installs * self.config.probe_fraction + 1e-9
        )
        if self._probes_done < expected:
            self._probes_done += 1
            return True
        return False

    # -- sharing window ----------------------------------------------------------

    def record(self, generated: int, reused: int) -> None:
        """Fold one partitioned install into the sharing window; a full
        window triggers the hysteresis decision immediately."""
        self._window_generated += generated
        self._window_reused += reused
        if self._window_generated >= self.config.window:
            self._roll_window()

    # -- mode transitions --------------------------------------------------------

    def set_mode(self, megaflow: bool) -> bool:
        """Switch partitioner mode; returns ``True`` if it changed.

        Entering Megaflow mode schedules an immediate probe so the
        sharing estimate starts refreshing right away instead of one
        probe period later; the cadence then restarts from zero credit.
        """
        if megaflow == self.megaflow_mode:
            return False
        self.megaflow_mode = megaflow
        self.mode_switches += 1
        if megaflow:
            self._probe_installs = 0
            self._probes_done = 0
            self._probe_pending = True
        return True

    def _roll_window(self) -> None:
        sharing = self._window_reused / self._window_generated
        if not self.megaflow_mode and sharing < self.config.low_watermark:
            self.set_mode(True)
        elif self.megaflow_mode and sharing > self.config.high_watermark:
            self.set_mode(False)
        self._window_generated = 0
        self._window_reused = 0


class AdaptiveGigaflowCache(GigaflowCache):
    """A Gigaflow cache that degrades to Megaflow entries when the
    traffic offers no sub-traversal sharing."""

    name = "gigaflow-adaptive"

    def __init__(
        self,
        num_tables: int = 4,
        table_capacity: int = 8192,
        start_tag: int = 0,
        config: Optional[AdaptiveConfig] = None,
        **kwargs,
    ):
        super().__init__(
            num_tables=num_tables,
            table_capacity=table_capacity,
            start_tag=start_tag,
            partitioner=disjoint_partition,
            **kwargs,
        )
        # None sentinel: a dataclass instance in the signature would be
        # evaluated once at def time and aliased by every cache built
        # without an explicit config (ruff B008).
        self.config = config if config is not None else AdaptiveConfig()
        self.governor = ModeGovernor(self.config)

    # -- the profile-guided install path -----------------------------------------

    def install_traversal(
        self,
        traversal: Traversal,
        generation: int = 0,
        now: float = 0.0,
    ) -> InstallOutcome:
        governor = self.governor
        partitioned = governor.next_install_partitions()
        self.partitioner = (
            disjoint_partition if partitioned else megaflow_partition
        )
        outcome = super().install_traversal(traversal, generation, now)
        # Only partitioned installs inform the sharing estimate.
        if partitioned:
            was_megaflow = governor.megaflow_mode
            governor.record(outcome.generated, outcome.reused)
            tel = self.telemetry
            if tel is not None and governor.megaflow_mode != was_megaflow:
                tel.on_mode_switch(
                    now, MODE_NAMES[was_megaflow], MODE_NAMES[not was_megaflow]
                )
        return outcome
