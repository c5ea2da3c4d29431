"""Strict idle-boundary contract, to the ulp, on all four cache types.

``evict_idle`` expires an entry only when ``now - last_used > timeout``
— an entry idle for *exactly* its timeout survives the sweep.  The
timeout predictor replaces the threshold, never the comparison, so the
contract must hold in three regimes, each pinned here for Microflow,
Megaflow, Gigaflow and the hierarchy:

* detached (``timeout_predictor is None``): the global ``max_idle``
  is the threshold, strict to one ulp either side;
* a uniform predictor: same boundary, now routed through
  ``timeout_for`` and ``on_expire``;
* per-rule overrides: each entry expires at its *own* deadline — one
  ulp past the short entry's timeout removes only it, the rest hold to
  theirs.

``tests/test_eviction_policies.py::TestIdleBoundaryContract`` pins the
coarser (+1e-9) detached boundary; this file sharpens it to
``math.nextafter`` and extends it across the predictor hook sites.
"""

import math

import pytest

from repro.core.gigaflow import GigaflowCache
from repro.core.timeouts import (
    StaticTimeoutPredictor,
    TimeoutConfig,
    resolve_predictor,
)

from test_eviction_policies import ltm_rule
from test_eviction_properties import Rig

MAX_IDLE = 5.0
#: The short per-rule override deadline in the mapped-predictor tests.
SHORT = 2.0

JUST_UNDER = math.nextafter(MAX_IDLE, 0.0)
JUST_OVER = math.nextafter(MAX_IDLE, math.inf)


class MappedTimeoutPredictor(StaticTimeoutPredictor):
    """Test double: explicit per-key deadlines, ``max_idle`` default."""

    name = "mapped"

    def __init__(self, overrides):
        super().__init__(
            TimeoutConfig(predictor="static", max_idle=MAX_IDLE)
        )
        self._overrides = dict(overrides)

    def _raw_timeout(self, key):
        return self._overrides.get(key, self.max_idle)


KINDS = ("gigaflow", "hierarchy", "megaflow", "microflow")


def build(kind):
    """A ``kind`` cache holding two entries installed at t=0 (the
    hierarchy's one install lands one per level), and their predictor
    keys — through the conformance driver's per-cache rig."""
    rig = Rig(kind, "lru", 8, fast_path=False, predicted=False)
    for idx in (1,) if kind == "hierarchy" else (1, 2):
        rig.install(idx, 0.0)
    return rig.cache, tuple(rig.resident_keys())


@pytest.mark.parametrize("kind", KINDS)
class TestDetachedBoundaryToTheUlp:
    def test_exactly_max_idle_survives_one_ulp_past_expires(self, kind):
        cache, _ = build(kind)
        population = cache.entry_count()
        assert population == 2
        assert cache.evict_idle(JUST_UNDER, MAX_IDLE) == 0
        assert cache.evict_idle(MAX_IDLE, MAX_IDLE) == 0
        assert cache.entry_count() == population
        assert cache.evict_idle(JUST_OVER, MAX_IDLE) == population
        assert cache.entry_count() == 0


@pytest.mark.parametrize("kind", KINDS)
class TestPredictedBoundaryToTheUlp:
    """Same boundary, now routed through ``timeout_for``/``on_expire``:
    the predictor supplies the threshold, the comparison stays strict."""

    def test_uniform_predictor_keeps_the_boundary(self, kind):
        cache, _ = build(kind)
        predictor = resolve_predictor("static", MAX_IDLE)
        cache.set_timeout_predictor(predictor)
        population = cache.entry_count()
        assert cache.evict_idle(JUST_UNDER, MAX_IDLE) == 0
        assert cache.evict_idle(MAX_IDLE, MAX_IDLE) == 0
        assert predictor.expired == 0
        assert cache.evict_idle(JUST_OVER, MAX_IDLE) == population
        assert cache.entry_count() == 0
        assert predictor.expired == population

    def test_per_rule_override_expires_each_at_its_own_deadline(
        self, kind
    ):
        cache, (key_a, key_b) = build(kind)
        predictor = MappedTimeoutPredictor({key_a: SHORT})
        cache.set_timeout_predictor(predictor)
        # Exactly SHORT idle: the overridden entry survives (strict).
        assert cache.evict_idle(SHORT, MAX_IDLE) == 0
        assert cache.entry_count() == 2
        # One ulp past SHORT: only the overridden entry expires.
        assert cache.evict_idle(
            math.nextafter(SHORT, math.inf), MAX_IDLE
        ) == 1
        assert cache.entry_count() == 1
        assert predictor.expired == 1
        # The other entry holds to the default deadline...
        assert cache.evict_idle(MAX_IDLE, MAX_IDLE) == 0
        # ...and goes one ulp past it.
        assert cache.evict_idle(JUST_OVER, MAX_IDLE) == 1
        assert cache.entry_count() == 0
        assert predictor.expired == 2


def test_expiry_of_one_copy_is_seen_by_the_prediction_for_the_next():
    """The same rule identity can be resident in two LTM tables, and
    both copies share one estimator entry.  The sweep predicts lazily,
    table by table: once the first copy's expiry has dropped the
    estimate, the second is judged by the cold timeout."""
    cache = GigaflowCache(num_tables=2, table_capacity=4)
    predictor = resolve_predictor("ewma", MAX_IDLE)
    cache.set_timeout_predictor(predictor)
    first, second = ltm_rule(tp_dst=1), ltm_rule(tp_dst=1)
    assert first.identity() == second.identity()
    cache.tables[0].insert(first)
    cache.tables[1].insert(second)
    cache.tables[0].touch(first, 1.0)
    cache.tables[1].touch(second, 2.0)
    learned = predictor.timeout_for(first.identity())
    assert learned < 4.2 < MAX_IDLE  # second copy: past learned, not cold
    assert cache.evict_idle(now=6.2, max_idle=MAX_IDLE) == 1
    assert list(cache) == [second]
