"""Telemetry-driven adaptive control loop (closing the ROADMAP's loop).

The paper's §7 proposes profile-guided adaptation: sample the traffic
and fall back to Megaflow-style single-segment entries when
sub-traversal sharing is scarce.  That decision belongs to the cache:
:class:`~repro.core.adaptive.ModeGovernor` makes it per install window
under every driver, and this controller only *reports* it (knob
``mode``: a net change since the last sweep is logged like any other
transition).  What the controller decides, on the sweep cadence and
from the :class:`~repro.obs.snapshot.CacheSnapshot` occupancy, is two
knobs:

``placement``
    :class:`~repro.core.gigaflow.GigaflowCache` install placement bias:
    ``"balanced"`` under occupancy pressure (spread load), ``"earliest"``
    when the cache is comfortably empty (shorter probe chains).
``timeout_scale``
    The aggressiveness of an attached
    :class:`~repro.core.timeouts.TimeoutPredictor`: under occupancy
    pressure the controller scales every predicted idle timeout down so
    dead entries free slots sooner, and relaxes back toward the
    predictor's own view (scale 1.0) once occupancy falls below the low
    watermark.

It also switches shadowed-chain repair on at attach
(``enable_chain_repair``).  Every decision is hysteretic twice over:
watermarks separate the switch thresholds, and a condition must hold
for ``dwell`` consecutive sweeps before it is acted on, so one noisy
window cannot flap a knob.  Every
transition is observable — a ``repro_controller_transitions_total``
counter, a ``repro_controller_state`` gauge, a ``controller`` trace
event, and an in-memory transition log surfaced via :meth:`summary`.

The controller is strictly additive: with ``SimConfig.controller``
unset nothing here is constructed and simulation results are
bit-identical to a build without this module
(``tests/test_controller.py`` pins that differentially).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = [
    "AdaptiveController",
    "ControllerConfig",
    "KNOB_MODE",
    "KNOB_PLACEMENT",
    "KNOB_TIMEOUT",
]

KNOB_MODE = "mode"
KNOB_PLACEMENT = "placement"
KNOB_TIMEOUT = "timeout_scale"

MODE_DISJOINT = "disjoint"
MODE_MEGAFLOW = "megaflow"


@dataclass
class ControllerConfig:
    """Knobs of the control loop itself.

    Attributes:
        dwell: Consecutive sweeps a condition must hold before the
            controller acts on it (flap damping).
        enable_chain_repair: Turn on
            :attr:`~repro.core.gigaflow.GigaflowCache.chain_repair` on
            the attached cache.  Eviction can break a multi-segment
            chain mid-stream; without repair the stale head shadows a
            complete replacement entry and the flow misses for as long
            as the head stays resident.  (Left off on uncontrolled caches so
            controller-off runs stay bit-identical to the historical
            behaviour.)
        occupancy_low / occupancy_high: Occupancy watermarks for the
            placement and timeout decisions.
        manage_timeout / timeout_scale_step / timeout_scale_min:
            Timeout-aggressiveness control.  When the attached cache
            carries a :class:`~repro.core.timeouts.TimeoutPredictor`,
            occupancy at or above ``occupancy_high`` for ``dwell``
            sweeps multiplies the predictor's aggressiveness by
            ``timeout_scale_step`` (shorter timeouts, floored at
            ``timeout_scale_min``); occupancy at or below
            ``occupancy_low`` divides it back out (capped at 1.0 —
            the controller never *lengthens* timeouts beyond the
            prediction, which ``max_idle`` already bounds).
    """

    dwell: int = 2
    enable_chain_repair: bool = True
    occupancy_low: float = 0.35
    occupancy_high: float = 0.85
    manage_timeout: bool = True
    timeout_scale_step: float = 0.5
    timeout_scale_min: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.occupancy_low <= self.occupancy_high <= 1.0:
            raise ValueError(
                "need 0 <= occupancy_low <= occupancy_high <= 1"
            )
        if self.dwell < 1:
            raise ValueError("dwell must be at least one sweep")
        if not 0.0 < self.timeout_scale_step < 1.0:
            raise ValueError("timeout_scale_step must be in (0, 1)")
        if not 0.0 < self.timeout_scale_min <= 1.0:
            raise ValueError("timeout_scale_min must be in (0, 1]")


class AdaptiveController:
    """One closed loop over one cache, driven on the sweep cadence.

    Wiring: :meth:`attach` binds the cache and its telemetry;
    the engine then calls :meth:`on_sweep` right after every periodic
    snapshot (see ``PacketKernel.advance``).  The controller
    degrades gracefully: knobs whose surface the cache does not expose
    (no ``placement``, no ``chain_repair``, no timeout predictor) are
    simply skipped, so attaching it to a Megaflow or hierarchy system
    is a no-op rather than an error.
    """

    def __init__(self, config: Optional[ControllerConfig] = None):
        self.config = config if config is not None else ControllerConfig()
        self.cache = None
        self.telemetry = None
        self.sweeps = 0
        #: Chronological transition log: dicts with ts/knob/from/to and
        #: the signal values that justified the change.
        self.transitions: List[dict] = []
        self.last_signals: dict = {}
        self._name = ""
        self._streaks: dict = {}
        # The partitioner mode as of the last sweep (what a governor
        # switch is reported against).
        self._mode = MODE_DISJOINT
        self._timeout_pred = None

    # -- wiring -----------------------------------------------------------------

    def attach(self, cache, telemetry) -> None:
        """Bind the loop to a cache and the telemetry it reads."""
        self.cache = cache
        self.telemetry = telemetry
        self._name = getattr(cache, "telemetry_name", None) or cache.name
        self._mode = _mode_of(cache)
        if self.config.enable_chain_repair and hasattr(cache, "chain_repair"):
            cache.chain_repair = True
        # Installed by the engine before attach (see PacketKernel), so
        # the predictor is already wired when the loop starts.
        self._timeout_pred = getattr(cache, "timeout_predictor", None)

    # -- hysteresis bookkeeping -------------------------------------------------

    def _hold(self, key, condition: bool) -> bool:
        """True once ``condition`` has held ``dwell`` consecutive sweeps."""
        streak = self._streaks.get(key, 0) + 1 if condition else 0
        self._streaks[key] = streak
        return streak >= self.config.dwell

    def _apply(self, knob: str, old, new, now: float, signals: dict) -> None:
        self.transitions.append(
            {
                "ts": now,
                "knob": knob,
                "from": old,
                "to": new,
                "occupancy": signals.get("occupancy"),
            }
        )
        # Acting on a condition consumes its streak: the *next* change
        # needs fresh evidence, even if the signal sits past the
        # watermark for many sweeps.
        for key in list(self._streaks):
            if key[0] == knob:
                self._streaks[key] = 0
        if self.telemetry is not None:
            self.telemetry.on_controller(
                now, self._name, knob, old, new, _encode(knob, new)
            )

    # -- the loop ---------------------------------------------------------------

    def on_sweep(self, now: float, snapshot=None) -> dict:
        """Run one decision round; returns the signals it acted on."""
        self.sweeps += 1
        cfg = self.config
        signals = {
            "occupancy": snapshot.occupancy if snapshot else None,
            "epoch_delta": snapshot.epoch_delta if snapshot else 0,
        }
        self.last_signals = signals

        # The cache's governor decides the mode per install window; a
        # net change since the last sweep is reported here so it shows
        # in the transition log, counter, gauge and trace like any knob.
        mode = _mode_of(self.cache)
        if mode != self._mode:
            self._apply(KNOB_MODE, self._mode, mode, now, signals)
            self._mode = mode

        occupancy = signals["occupancy"]
        placement = getattr(self.cache, "placement", None)
        if placement is not None and occupancy is not None:
            if placement != "balanced" and self._hold(
                (KNOB_PLACEMENT, "balanced"),
                occupancy >= cfg.occupancy_high,
            ):
                self.cache.placement = "balanced"
                self._apply(
                    KNOB_PLACEMENT, placement, "balanced", now, signals
                )
            elif placement != "earliest" and self._hold(
                (KNOB_PLACEMENT, "earliest"),
                occupancy <= cfg.occupancy_low,
            ):
                self.cache.placement = "earliest"
                self._apply(
                    KNOB_PLACEMENT, placement, "earliest", now, signals
                )

        predictor = self._timeout_pred
        if (
            cfg.manage_timeout
            and predictor is not None
            and occupancy is not None
        ):
            scale = predictor.aggressiveness
            if scale > cfg.timeout_scale_min and self._hold(
                (KNOB_TIMEOUT, "down"), occupancy >= cfg.occupancy_high
            ):
                target = max(
                    round(scale * cfg.timeout_scale_step, 6),
                    cfg.timeout_scale_min,
                )
                if predictor.set_aggressiveness(target):
                    self._apply(
                        KNOB_TIMEOUT, scale,
                        predictor.aggressiveness, now, signals,
                    )
            elif scale < 1.0 and self._hold(
                (KNOB_TIMEOUT, "up"), occupancy <= cfg.occupancy_low
            ):
                target = min(
                    round(scale / cfg.timeout_scale_step, 6), 1.0
                )
                if predictor.set_aggressiveness(target):
                    self._apply(
                        KNOB_TIMEOUT, scale,
                        predictor.aggressiveness, now, signals,
                    )
        return signals

    # -- reporting --------------------------------------------------------------

    #: What does not simply add when sharded runs fold :meth:`summary`
    #: (:func:`repro.obs.telemetry.fold_digests`): each shard steers its
    #: own knobs, so their states are kept side by side, and the
    #: last-sweep fields have no fold.
    SUMMARY_MERGE = {
        "state": ("per_shard", "per_shard_state"),
        "last_signals": "drop",
        "log": "drop",
    }

    def summary(self) -> dict:
        """Digest merged into ``SimResult.telemetry["controller"]``."""
        by_knob: dict = {}
        for transition in self.transitions:
            by_knob[transition["knob"]] = (
                by_knob.get(transition["knob"], 0) + 1
            )
        return {
            "sweeps": self.sweeps,
            "transitions": len(self.transitions),
            "by_knob": by_knob,
            "state": {
                "mode": _mode_of(self.cache),
                "placement": getattr(self.cache, "placement", None),
                "timeout_scale": (
                    self._timeout_pred.aggressiveness
                    if self._timeout_pred is not None
                    else None
                ),
            },
            "last_signals": self.last_signals,
            "log": self.transitions[-50:],
        }


def _mode_of(cache) -> str:
    """The partitioner mode ``cache`` installs in right now (a cache
    without a governor only ever partitions)."""
    return (
        MODE_MEGAFLOW if getattr(cache, "megaflow_mode", False)
        else MODE_DISJOINT
    )


def _encode(knob: str, value) -> float:
    """Stable numeric encoding of a knob value for the state gauge."""
    if knob == KNOB_MODE:
        return 1.0 if value == MODE_MEGAFLOW else 0.0
    if knob == KNOB_TIMEOUT:
        return float(value)
    if knob == KNOB_PLACEMENT:
        return 1.0 if value == "earliest" else 0.0
    return 0.0
