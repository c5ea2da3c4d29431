"""Telemetry-driven adaptive control loop (closing the ROADMAP's loop).

The paper's §7 proposes profile-guided adaptation: sample the traffic
and fall back to Megaflow-style single-segment entries when
sub-traversal sharing is scarce.  :class:`AdaptiveGigaflowCache` already
does that from one hand-rolled install counter; this module generalises
it into a controller that reads the *full* telemetry surface the
observability subsystem exposes — per-table probe shares from the
:class:`~repro.obs.metrics.MetricsRegistry`, occupancy / per-table fill
/ epoch-churn from :class:`~repro.obs.snapshot.CacheSnapshot` — and
adjusts four live knobs on the sweep cadence:

``mode``
    The partitioner mode of an :class:`AdaptiveGigaflowCache` (disjoint
    vs. Megaflow single-segment), via its :class:`ModeGovernor`.
``effective_k``
    How many tables disjoint partitioning may split across.  Tables
    whose share of LTM probe hits stays under ``table_share_floor``
    are not earning their per-flow entry cost; shrinking K concentrates
    rules in the tables that do.
``placement``
    :class:`~repro.core.gigaflow.GigaflowCache` install placement bias:
    ``"balanced"`` under occupancy pressure (spread load), ``"earliest"``
    when the cache is comfortably empty (shorter probe chains).
``eviction_policy``
    The active per-table :class:`~repro.cache.eviction.EvictionPolicy`:
    sharing-rich traffic is worth the sharing-aware policy's weight
    bookkeeping, sharing-poor traffic does better with plain LRU.  While
    the sharing policy is active the controller also applies weight
    *decay* each sweep so stale reinforcement ages out.
``timeout_scale``
    The aggressiveness of an attached
    :class:`~repro.core.timeouts.TimeoutPredictor` (the fifth eviction
    axis): under occupancy pressure the controller scales every
    predicted idle timeout down so dead entries free slots sooner, and
    relaxes back toward the predictor's own view (scale 1.0) once
    occupancy falls below the low watermark.

Every decision is hysteretic twice over: watermarks separate the switch
thresholds, and a condition must hold for ``dwell`` consecutive sweeps
before it is acted on, so one noisy window cannot flap a knob.  Every
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

from ..cache.eviction import POLICY_NAMES, SharingAwarePolicy

__all__ = [
    "AdaptiveController",
    "ControllerConfig",
    "KNOB_K",
    "KNOB_MODE",
    "KNOB_PLACEMENT",
    "KNOB_POLICY",
    "KNOB_PROBE",
    "KNOB_TIMEOUT",
]

KNOB_MODE = "mode"
KNOB_K = "effective_k"
KNOB_PLACEMENT = "placement"
KNOB_POLICY = "eviction_policy"
KNOB_PROBE = "probe_fraction"
KNOB_TIMEOUT = "timeout_scale"

MODE_DISJOINT = "disjoint"
MODE_MEGAFLOW = "megaflow"


@dataclass
class ControllerConfig:
    """Knobs of the control loop itself.

    Attributes:
        low_watermark: Sharing rate below which disjoint partitioning is
            not paying for its extra per-flow entries (switch toward
            Megaflow mode / the plain-LRU policy).
        high_watermark: Sharing rate above which it clearly is (switch
            back / toward the sharing-aware policy).
        min_window: Minimum generated rules in a sweep window before the
            sharing rate is trusted; thinner windows yield no verdict.
        dwell: Consecutive sweeps a condition must hold before the
            controller acts on it (flap damping).
        enable_chain_repair: Turn on
            :attr:`~repro.core.gigaflow.GigaflowCache.chain_repair` on
            the attached cache.  Mode switches reinstall flows at a
            different partition shape; without repair, the stale heads
            of their old chains shadow the new entries and the flows
            miss permanently.  (Left off on uncontrolled caches so
            controller-off runs stay bit-identical to the historical
            behaviour.)
        pressure_break_even: Raise the mode watermarks toward the
            slot-cost break-even while the cache is over
            ``occupancy_high``.  Under capacity pressure a disjoint
            install of ``K`` segments costs ``K × (1 - sharing)`` slots
            against Megaflow mode's one, so partitioning only pays when
            sharing exceeds ``1 - 1/K`` — far above the free-capacity
            watermark, where slots cost nothing and any sharing is pure
            coverage win.
        manage_mode / manage_k / manage_placement / manage_policy:
            Per-knob enables.
        k_dwell: Dwell for the effective-K knob specifically.  Changing
            K repartitions future traversals at a different granularity,
            which invalidates reuse against everything already
            installed, so K moves want much stronger evidence than the
            other knobs.
        k_min: Lower clamp for the effective-K decision.
        table_share_floor: An LTM table is "pulling its weight" when its
            share of hit probes in the sweep window is at least this.
        occupancy_low / occupancy_high: Occupancy watermarks for the
            placement decision.
        policy_weak / policy_strong: Eviction policy names used under
            scarce / rich sharing.
        decay_factor: Weight-decay factor applied to sharing-aware
            policies each sweep (see
            :meth:`~repro.cache.eviction.SharingAwarePolicy.decay`).
        manage_probe / probe_floor / probe_ceiling / probe_ramp:
            Mode-residency-driven probe cadence (the §7 sampling rate).
            While the governor sits in Megaflow mode the probe fraction
            ramps linearly from ``probe_floor`` (fresh switch: the
            sharing verdict that caused it is still trustworthy, probe
            gently) up to ``probe_ceiling`` once the mode has been
            resident ``probe_ramp`` seconds (the verdict has gone
            stale: spend more installs re-measuring so returning
            locality is caught quickly).  Leaving Megaflow mode resets
            the ramp; the governor restarts its integer cadence
            bookkeeping on every retune so the realised probe share
            tracks the live fraction exactly.
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

    low_watermark: float = 0.25
    high_watermark: float = 0.40
    min_window: int = 24
    dwell: int = 2
    pressure_break_even: bool = True
    enable_chain_repair: bool = True
    manage_mode: bool = True
    manage_k: bool = True
    k_dwell: int = 6
    k_min: int = 2
    table_share_floor: float = 0.05
    manage_placement: bool = True
    occupancy_low: float = 0.35
    occupancy_high: float = 0.85
    manage_policy: bool = True
    policy_weak: str = "lru"
    policy_strong: str = "sharing"
    decay_factor: float = 0.5
    manage_probe: bool = True
    probe_floor: float = 0.05
    probe_ceiling: float = 0.5
    probe_ramp: float = 60.0
    manage_timeout: bool = True
    timeout_scale_step: float = 0.5
    timeout_scale_min: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_watermark <= self.high_watermark <= 1.0:
            raise ValueError(
                "need 0 <= low_watermark <= high_watermark <= 1"
            )
        if not 0.0 <= self.occupancy_low <= self.occupancy_high <= 1.0:
            raise ValueError(
                "need 0 <= occupancy_low <= occupancy_high <= 1"
            )
        if self.dwell < 1:
            raise ValueError("dwell must be at least one sweep")
        if self.k_dwell < 1:
            raise ValueError("k_dwell must be at least one sweep")
        if self.min_window < 1:
            raise ValueError("min_window must be positive")
        if self.k_min < 1:
            raise ValueError("k_min must be positive")
        if not 0.0 <= self.decay_factor < 1.0:
            raise ValueError("decay_factor must be in [0, 1)")
        if not 0.0 < self.probe_floor <= self.probe_ceiling <= 1.0:
            raise ValueError(
                "need 0 < probe_floor <= probe_ceiling <= 1"
            )
        if self.probe_ramp <= 0:
            raise ValueError("probe_ramp must be positive")
        if not 0.0 < self.timeout_scale_step < 1.0:
            raise ValueError("timeout_scale_step must be in (0, 1)")
        if not 0.0 < self.timeout_scale_min <= 1.0:
            raise ValueError("timeout_scale_min must be in (0, 1]")
        for policy in (self.policy_weak, self.policy_strong):
            if policy not in POLICY_NAMES:
                raise ValueError(
                    f"unknown eviction policy {policy!r} "
                    f"(known: {', '.join(POLICY_NAMES)})"
                )


class AdaptiveController:
    """One closed loop over one cache, driven on the sweep cadence.

    Wiring: :meth:`attach` binds the cache and its telemetry;
    the engine then calls :meth:`on_sweep` right after every periodic
    snapshot (see ``PacketKernel.advance``).  The controller
    degrades gracefully: knobs whose surface the cache does not expose
    (no :class:`~repro.core.adaptive.ModeGovernor`, no LTM tables, no
    ``set_eviction_policy``) are simply skipped, so attaching it to a
    Megaflow or hierarchy system is a no-op rather than an error.
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
        self._governor = None
        self._tables = ()
        self._streaks: dict = {}
        self._last_ltm_hits: List[int] = []
        self._last_stats = (0, 0, 0)
        self._policy = None
        self._timeout_pred = None
        # When the governor entered Megaflow mode (None while disjoint
        # or unknown) — the probe-fraction ramp's residency clock.
        self._mode_entered: Optional[float] = None

    # -- wiring -----------------------------------------------------------------

    def attach(self, cache, telemetry) -> None:
        """Bind the loop to a cache and the telemetry it reads."""
        self.cache = cache
        self.telemetry = telemetry
        self._name = getattr(cache, "telemetry_name", None) or cache.name
        governor = getattr(cache, "governor", None)
        if governor is not None:
            # The controller owns mode decisions now; the governor only
            # accumulates the sharing window between sweeps.
            governor.external = True
        self._governor = governor
        if self.config.enable_chain_repair and hasattr(cache, "chain_repair"):
            cache.chain_repair = True
        self._tables = getattr(cache, "tables", ())
        self._last_ltm_hits = [0] * len(self._tables)
        stats = cache.stats
        self._last_stats = (
            stats.insertions, stats.rejected,
            getattr(cache, "sharing_events", 0),
        )
        if self._tables:
            self._policy = getattr(cache, "eviction", None)
        # Installed by the engine before attach (see PacketKernel), so
        # the predictor is already wired when the loop starts.
        self._timeout_pred = getattr(cache, "timeout_predictor", None)

    # -- signal extraction ------------------------------------------------------

    def _read_signals(self, snapshot) -> dict:
        """One sweep's worth of decision inputs, all delta-based."""
        cfg = self.config
        cache = self.cache
        if self._governor is not None:
            generated, reused = self._governor.take_window()
        else:
            # Plain GigaflowCache: reconstruct the install window from
            # the cumulative stats counters.
            stats = cache.stats
            sharing_events = getattr(cache, "sharing_events", 0)
            prev_ins, prev_rej, prev_share = self._last_stats
            self._last_stats = (
                stats.insertions, stats.rejected, sharing_events
            )
            reused = sharing_events - prev_share
            generated = (
                (stats.insertions - prev_ins)
                + (stats.rejected - prev_rej)
                + reused
            )
        sharing = (
            reused / generated if generated >= cfg.min_window else None
        )
        table_shares = None
        if self._tables and self.telemetry is not None:
            hits = self.telemetry.ltm_hit_counts()
            deltas = [
                now_v - then_v
                for now_v, then_v in zip(hits, self._last_ltm_hits)
            ]
            self._last_ltm_hits = hits
            total = sum(deltas)
            if total >= cfg.min_window:
                table_shares = [delta / total for delta in deltas]
        return {
            "generated": generated,
            "reused": reused,
            "sharing": sharing,
            "table_hit_shares": table_shares,
            "occupancy": snapshot.occupancy if snapshot else None,
            "epoch_delta": snapshot.epoch_delta if snapshot else 0,
        }

    # -- hysteresis bookkeeping -------------------------------------------------

    def _hold(self, key, condition: bool, dwell: Optional[int] = None) -> bool:
        """True once ``condition`` has held ``dwell`` consecutive sweeps."""
        streak = self._streaks.get(key, 0) + 1 if condition else 0
        self._streaks[key] = streak
        return streak >= (self.config.dwell if dwell is None else dwell)

    def _apply(self, knob: str, old, new, now: float, signals: dict) -> None:
        self.transitions.append(
            {
                "ts": now,
                "knob": knob,
                "from": old,
                "to": new,
                "sharing": signals.get("sharing"),
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
        signals = self._read_signals(snapshot)
        self.last_signals = signals
        sharing = signals["sharing"]

        governor = self._governor
        if cfg.manage_mode and governor is not None and sharing is not None:
            low_thr = cfg.low_watermark
            high_thr = cfg.high_watermark
            occ = signals["occupancy"]
            if (
                cfg.pressure_break_even
                and occ is not None
                and occ >= cfg.occupancy_high
                and len(self._tables) > 1
            ):
                # Under capacity pressure slots are the scarce resource:
                # a disjoint install of k segments must reuse enough of
                # them to beat Megaflow mode's single entry, so the
                # break-even sharing rate is 1 - 1/k.  Keep the same
                # hysteresis gap above it.
                k = governor.effective_k or len(self._tables)
                break_even = 1.0 - 1.0 / max(k, 2)
                low_thr = max(low_thr, break_even)
                high_thr = max(
                    high_thr,
                    break_even + (cfg.high_watermark - cfg.low_watermark),
                )
            signals["mode_thresholds"] = (low_thr, high_thr)
            if not governor.megaflow_mode and self._hold(
                (KNOB_MODE, MODE_MEGAFLOW), sharing < low_thr
            ):
                governor.set_mode(True)
                self._mode_entered = now
                self._apply(
                    KNOB_MODE, MODE_DISJOINT, MODE_MEGAFLOW, now, signals
                )
            elif governor.megaflow_mode and self._hold(
                (KNOB_MODE, MODE_DISJOINT), sharing > high_thr
            ):
                governor.set_mode(False)
                self._mode_entered = None
                self._apply(
                    KNOB_MODE, MODE_MEGAFLOW, MODE_DISJOINT, now, signals
                )

        if cfg.manage_probe and governor is not None:
            if governor.megaflow_mode:
                if self._mode_entered is None:
                    # Mode was entered outside our control (standalone
                    # hysteresis, a forced set, or before attach):
                    # start the residency clock at this sweep.
                    self._mode_entered = now
                residency = now - self._mode_entered
                span = cfg.probe_ceiling - cfg.probe_floor
                fraction = round(
                    cfg.probe_floor
                    + span * min(residency / cfg.probe_ramp, 1.0),
                    3,
                )
                signals["mode_residency"] = residency
                old_fraction = governor.probe_fraction
                if governor.set_probe_fraction(fraction) and residency > 0:
                    # The residency-0 reset to probe_floor is part of
                    # the mode transition itself (the ramp's baseline),
                    # not a knob change worth its own log entry.
                    self._apply(
                        KNOB_PROBE, old_fraction, fraction, now, signals
                    )
            else:
                self._mode_entered = None

        shares = signals["table_hit_shares"]
        if (
            cfg.manage_k
            and governor is not None
            and not governor.megaflow_mode
            and shares is not None
        ):
            active = sum(
                1 for share in shares if share >= cfg.table_share_floor
            )
            target = max(min(active, len(self._tables)), cfg.k_min)
            current = governor.effective_k or len(self._tables)
            # The dwell requirement is on *this* target specifically: a
            # different target last sweep restarts the clock.
            for key in self._streaks:
                if key[0] == KNOB_K and key[1] != target:
                    self._streaks[key] = 0
            if self._hold(
                (KNOB_K, target), target != current, dwell=cfg.k_dwell
            ):
                governor.effective_k = target
                self._apply(KNOB_K, current, target, now, signals)

        occupancy = signals["occupancy"]
        placement = getattr(self.cache, "placement", None)
        if cfg.manage_placement and placement is not None and (
            occupancy is not None
        ):
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

        if (
            cfg.manage_policy
            and self._policy is not None
            and self._policy != "reject"
            and sharing is not None
        ):
            if self._policy != cfg.policy_strong and self._hold(
                (KNOB_POLICY, cfg.policy_strong),
                sharing > cfg.high_watermark,
            ):
                self._switch_policy(cfg.policy_strong, now, signals)
            elif self._policy != cfg.policy_weak and self._hold(
                (KNOB_POLICY, cfg.policy_weak),
                sharing < cfg.low_watermark,
            ):
                self._switch_policy(cfg.policy_weak, now, signals)

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

        # Age sharing-aware weight state every sweep while it is live.
        for table in self._tables:
            policy = getattr(table, "policy", None)
            if isinstance(policy, SharingAwarePolicy):
                policy.decay(cfg.decay_factor)
        return signals

    def _switch_policy(self, name: str, now: float, signals: dict) -> None:
        old = self._policy
        self.cache.set_eviction_policy(name)
        self._policy = name
        self._apply(KNOB_POLICY, old, name, now, signals)

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
        governor = self._governor
        return {
            "sweeps": self.sweeps,
            "transitions": len(self.transitions),
            "by_knob": by_knob,
            "state": {
                "mode": (
                    MODE_MEGAFLOW
                    if governor is not None and governor.megaflow_mode
                    else MODE_DISJOINT
                ),
                "effective_k": (
                    governor.effective_k if governor is not None else None
                ),
                "placement": getattr(self.cache, "placement", None),
                "eviction_policy": self._policy,
                "probe_fraction": (
                    governor.probe_fraction
                    if governor is not None
                    else None
                ),
                "timeout_scale": (
                    self._timeout_pred.aggressiveness
                    if self._timeout_pred is not None
                    else None
                ),
            },
            "last_signals": self.last_signals,
            "log": self.transitions[-50:],
        }


#: ``repro_controller_state{knob="eviction_policy"}`` values.  Declared,
#: not derived from ``POLICY_NAMES`` order: 1.0 and 2.0 were ``slru``
#: and ``2q``, and recorded series keep reading ``sharing`` as 3.0.
_POLICY_CODES = {"lru": 0.0, "sharing": 3.0}


def _encode(knob: str, value) -> float:
    """Stable numeric encoding of a knob value for the state gauge."""
    if knob == KNOB_MODE:
        return 1.0 if value == MODE_MEGAFLOW else 0.0
    if knob == KNOB_K or knob == KNOB_PROBE or knob == KNOB_TIMEOUT:
        return float(value)
    if knob == KNOB_PLACEMENT:
        return 1.0 if value == "earliest" else 0.0
    if knob == KNOB_POLICY:
        return _POLICY_CODES.get(value, -1.0)
    return 0.0
