"""Per-rule adaptive idle-timeout prediction.

Every cache in the tree expires entries against one global ``max_idle``
constant (§4.3.2's idle expiry).  HQTimer showed that *learned* timeout
prediction — an EWMA of a rule's reuse interarrivals — beats any static
constant, and "Flow Correlator" argues flow-history models outperform
static cache management generally.  This module adds that axis: a
:class:`TimeoutPredictor` assigns each resident rule its *own* idle
timeout, clamped to ``[min_idle, max_idle]``, and the caches consult it
during their idle sweeps instead of the global constant.

Two predictors ship:

``static``
    The baseline: every rule gets ``max_idle``.  Behaviourally
    bit-identical to running without a predictor — the differential
    contract ``tests/test_timeouts_golden.py`` pins.
``ewma``
    Per-rule EWMA of observed reuse interarrivals; the timeout is
    ``grace × ewma`` (a rule reused every 0.1 s expires after ~0.3 s
    idle instead of occupying a slot for the full ``max_idle``).

(A third, a Q-table over discretized interarrival × occupancy states,
was deleted: it lost to ``ewma`` in every ``repro bench --timeouts``
cell measured and to the best static setting at default scale.)

The integration contract (the sweep and departure halves are written
once, in :class:`~repro.cache.base.FlowCache`; each cache has one
``touch``):

* **Off is free and identical.**  ``cache.timeout_predictor`` defaults
  to ``None``; every hook site guards on it (the telemetry idiom), so
  detached behaviour — including the strict idle boundary
  ``now - last_used > max_idle`` — is bit-identical to a build without
  this module.
* **Strict boundary.**  Predicted timeouts replace the *threshold*,
  never the comparison: expiry still requires
  ``now - last_used > timeout`` (exactly-``timeout`` idle survives).
* **The observation site is the ``last_used`` writer.**  A cache's
  ``touch`` (lookup hits, fast-path replays, install refreshes, LTM
  ``share``) first offers the predictor the elapsed interarrival, so
  EWMA state is identical with the fast path on or off.
* **The ledger is predictor-internal.**  Premature/dead counters and the
  predicted-timeout histogram live on the predictor;
  :meth:`~repro.obs.telemetry.Telemetry.attach_timeouts` delta-folds
  them into the registry on the flush cadence, so ``LtmTable`` and
  friends need no telemetry plumbing of their own.
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

__all__ = [
    "EwmaTimeoutPredictor",
    "PREDICTOR_NAMES",
    "StaticTimeoutPredictor",
    "TIMEOUT_BUCKETS",
    "TimeoutConfig",
    "TimeoutPredictor",
    "make_predictor",
    "resolve_predictor",
]

#: Histogram bounds for predicted timeouts (mirrors the LRU-age
#: buckets so the two distributions compare directly).
TIMEOUT_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)

#: EWMA smoothing weight for a rule's newest reuse interarrival.
EWMA_ALPHA = 0.3

#: Ghost-list size bound: keys of recently idle-expired entries kept to
#: detect premature evictions (reinstall-within-window).  FIFO beyond
#: this; far above any per-sweep expiry count the simulator sees.
GHOST_LIMIT = 4096


@dataclass
class TimeoutConfig:
    """Knobs shared by every predictor (see per-field docs).

    Attributes:
        predictor: Registered predictor name (:data:`PREDICTOR_NAMES`).
        min_idle / max_idle: The clamp — every predicted timeout lands
            in ``[min_idle, max_idle]``.  ``max_idle`` defaults to the
            engine's ``SimConfig.max_idle`` at resolve time.
        grace: EWMA timeout = ``grace × ewma_interarrival`` — the slack
            multiple a rule's next reuse is granted over its mean gap.

    ``max_idle`` is also the timeout of a rule never yet reused (no
    interarrival observed: the conservative choice, matching static
    behaviour) and the window after an idle expiry in which the key's
    return counts as a *premature* eviction.
    """

    predictor: str = "ewma"
    min_idle: float = 0.25
    max_idle: Optional[float] = None
    grace: float = 3.0

    def __post_init__(self) -> None:
        if self.min_idle <= 0:
            raise ValueError("min_idle must be positive")
        if self.max_idle is not None and self.max_idle < self.min_idle:
            raise ValueError("need min_idle <= max_idle")
        if self.grace <= 0:
            raise ValueError("grace must be positive")


class TimeoutPredictor(abc.ABC):
    """Per-rule idle-timeout assignment plus its feedback bookkeeping.

    The base class owns everything predictor-independent: the
    ``[min_idle, max_idle]`` clamp, reuse tracking for dead-entry
    detection, the ghost list for premature-eviction detection, and the
    counters/histogram telemetry folds from.  Subclasses implement the
    actual estimate via :meth:`_raw_timeout` and the ``_observe``
    hook.
    """

    name = "base"

    def __init__(self, config: TimeoutConfig):
        if config.max_idle is None:
            raise ValueError(
                "TimeoutConfig.max_idle unresolved — use "
                "resolve_predictor() or set it explicitly"
            )
        self.config = config
        self.min_idle = config.min_idle
        self.max_idle = config.max_idle
        #: Keys reused at least once since (re)install — an idle expiry
        #: of a key *not* in here is a dead entry.
        self._reused: set = set()
        #: key → (expiry time, subclass payload) of recent idle
        #: expiries, FIFO-bounded; consulted by :meth:`on_insert`.
        self._ghosts: "OrderedDict" = OrderedDict()
        # -- counters telemetry delta-folds (attach_timeouts) --------
        self.observations = 0
        self.expired = 0
        self.dead_evictions = 0
        self.premature_evictions = 0
        self.hist_counts: List[int] = [0] * (len(TIMEOUT_BUCKETS) + 1)
        self.hist_sum = 0.0

    # -- the clamp ------------------------------------------------------------

    def _clamp(self, raw: float) -> float:
        if raw < self.min_idle:
            return self.min_idle
        if raw > self.max_idle:
            return self.max_idle
        return raw

    # -- cache-facing hooks ---------------------------------------------------

    def timeout_for(self, key) -> float:
        """The idle timeout for ``key``, in ``[min_idle, max_idle]``."""
        return self._clamp(self._raw_timeout(key))

    def observe(self, key, gap: float, now: float) -> None:
        """``key`` was reused ``gap`` seconds after its previous use.

        Called by every ``last_used`` writer *before* the refresh, so
        the gap is the true interarrival.
        """
        self.observations += 1
        self._reused.add(key)
        self._observe(key, gap)

    def on_insert(self, key, now: float) -> None:
        """A new entry for ``key`` was installed; detects premature
        evictions via the ghost list."""
        ghost = self._ghosts.pop(key, None)
        if ghost is not None and now - ghost[0] <= self.max_idle:
            self.premature_evictions += 1
            # The key came straight back: the eviction was wrong, so
            # restore the estimator state the expiry dropped — without
            # this, a slow flow whose timeout under-shoots its gap
            # would relearn from cold (and mispredict again) forever.
            self._on_return(key, ghost[1])
            # The return also reveals the true interarrival the cache
            # never witnessed as a hit: the idle time accrued before
            # expiry plus the time spent evicted.  Feeding it to the
            # estimator lets slow flows escape the cold bucket even
            # when their gap exceeds every timeout tried so far.
            self.observations += 1
            self._observe(key, ghost[2] + (now - ghost[0]))
        self._reused.discard(key)

    def on_expire(self, key, idle: float, now: float, timeout: float) -> None:
        """The idle sweep expired ``key`` after ``idle`` seconds under
        predicted ``timeout``; records the histogram, dead-entry
        verdict and ghost, then drops the key's estimator state."""
        self.expired += 1
        self.hist_counts[bisect_left(TIMEOUT_BUCKETS, timeout)] += 1
        self.hist_sum += timeout
        if key not in self._reused:
            self.dead_evictions += 1
        self._reused.discard(key)
        if len(self._ghosts) >= GHOST_LIMIT:
            self._ghosts.popitem(last=False)
        self._ghosts[key] = (now, self._ghost_payload(key), idle)
        self._drop(key)

    def forget(self, key) -> None:
        """``key`` left the cache — every departure reports here
        (capacity victim, revalidation, clear; a no-op after an idle
        expiry's :meth:`on_expire`); drop state, leave the ledger."""
        self._reused.discard(key)
        self._drop(key)

    def clear(self) -> None:
        """Drop all per-key state (learned global state survives)."""
        self._reused.clear()
        self._ghosts.clear()
        self._drop_all()

    # -- subclass surface -----------------------------------------------------

    @abc.abstractmethod
    def _raw_timeout(self, key) -> float:
        """The unclamped timeout estimate for ``key``."""

    def _observe(self, key, gap: float) -> None:
        """Fold one interarrival observation into the estimator."""

    def _ghost_payload(self, key):
        """Estimator context to remember with ``key``'s ghost
        entry (restored by :meth:`_on_return` on premature returns)."""
        return None

    def _on_return(self, key, payload) -> None:
        """``key`` was reinstalled within the ghost window; restore the
        estimator state its expiry dropped."""

    def _drop(self, key) -> None:
        """Drop per-key estimator state (must be idempotent)."""

    def _drop_all(self) -> None:
        """Drop every key's estimator state."""

    # -- reporting ------------------------------------------------------------

    #: What does not simply add when sharded runs fold :meth:`summary`
    #: (:func:`repro.obs.telemetry.fold_digests`).
    SUMMARY_MERGE = {
        "predictor": "first",
        "mean_predicted": ("mean", "expired"),
    }

    def summary(self) -> dict:
        """Digest merged into ``SimResult.telemetry["timeouts"]``."""
        return {
            "predictor": self.name,
            "observations": self.observations,
            "expired": self.expired,
            "dead_evictions": self.dead_evictions,
            "premature_evictions": self.premature_evictions,
            "mean_predicted": (
                self.hist_sum / self.expired if self.expired else 0.0
            ),
        }


class StaticTimeoutPredictor(TimeoutPredictor):
    """The baseline: every rule gets the global ``max_idle``.

    Bit-identical to running without a predictor (the golden-test
    contract, without exemption).
    """

    name = "static"

    def _raw_timeout(self, key) -> float:
        return self.max_idle


class EwmaTimeoutPredictor(TimeoutPredictor):
    """EWMA-of-interarrival timeouts: ``grace × ewma(gap)`` per rule."""

    name = "ewma"

    def __init__(self, config: TimeoutConfig):
        super().__init__(config)
        self._ewma: Dict[object, float] = {}

    def _observe(self, key, gap: float) -> None:
        ewma = self._ewma.get(key)
        if ewma is None:
            self._ewma[key] = gap
        else:
            self._ewma[key] = EWMA_ALPHA * gap + (1.0 - EWMA_ALPHA) * ewma

    def _raw_timeout(self, key) -> float:
        ewma = self._ewma.get(key)
        if ewma is None:
            return self.max_idle
        return self.config.grace * ewma

    def estimate(self, key) -> Optional[float]:
        """The current EWMA interarrival for ``key`` (None when cold)."""
        return self._ewma.get(key)

    def _ghost_payload(self, key):
        return self._ewma.get(key)

    def _on_return(self, key, payload) -> None:
        if payload is not None and key not in self._ewma:
            self._ewma[key] = payload

    def _drop(self, key) -> None:
        self._ewma.pop(key, None)

    def _drop_all(self) -> None:
        self._ewma.clear()


TIMEOUT_PREDICTORS = {
    "static": StaticTimeoutPredictor,
    "ewma": EwmaTimeoutPredictor,
}

#: Registered predictor names, CLI choices order.
PREDICTOR_NAMES = tuple(TIMEOUT_PREDICTORS)


def make_predictor(
    name: str, config: Optional[TimeoutConfig] = None
) -> TimeoutPredictor:
    """Build the predictor registered under ``name``."""
    cls = TIMEOUT_PREDICTORS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown timeout predictor {name!r} "
            f"(known: {', '.join(PREDICTOR_NAMES)})"
        )
    return cls(config if config is not None else TimeoutConfig(
        predictor=name, max_idle=10.0
    ))


def resolve_predictor(spec, default_max_idle: float) -> TimeoutPredictor:
    """Resolve ``SimConfig.timeouts`` into a predictor instance.

    ``spec`` may be a predictor name, a :class:`TimeoutConfig` (its
    ``predictor`` field names the class), or an already-built
    :class:`TimeoutPredictor` (returned as-is).  A ``max_idle`` left
    unset on the config resolves to ``default_max_idle`` — the engine's
    global idle constant, which must be positive for sweeps to fire at
    all.
    """
    if isinstance(spec, TimeoutPredictor):
        return spec
    if isinstance(spec, TimeoutConfig):
        config = spec
        name = config.predictor
    elif isinstance(spec, str):
        name = spec
        config = TimeoutConfig(predictor=name)
    else:
        raise TypeError(
            f"timeouts must be a predictor name, TimeoutConfig or "
            f"TimeoutPredictor, got {type(spec).__name__}"
        )
    if config.max_idle is None:
        if default_max_idle <= 0:
            raise ValueError(
                "timeout prediction needs max_idle > 0 (idle sweeps "
                "never fire otherwise)"
            )
        config = replace(config, max_idle=default_max_idle)
    return make_predictor(name, config)
