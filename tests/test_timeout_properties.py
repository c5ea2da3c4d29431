"""Property-based tests for the per-rule timeout predictors.

Fuzzes the estimators in :mod:`repro.core.timeouts` against the
invariants their contracts promise:

* the **clamp**: every predicted timeout lands in
  ``[min_idle, max_idle]`` — for every predictor and any observation
  history;
* the **EWMA** estimate is a convex combination of the observed
  interarrivals, so it stays within their ``[min, max]`` envelope.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.timeouts import (
    PREDICTOR_NAMES,
    EwmaTimeoutPredictor,
    TimeoutConfig,
    make_predictor,
    resolve_predictor,
)

GAPS = st.lists(
    st.floats(
        min_value=1e-3,
        max_value=1e3,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=1,
    max_size=60,
)
KEYS = st.integers(0, 5)


def config(**overrides):
    base = dict(min_idle=0.25, max_idle=16.0)
    base.update(overrides)
    return TimeoutConfig(**base)


class TestClampInvariant:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(PREDICTOR_NAMES),
        observations=st.lists(st.tuples(KEYS, GAPS), max_size=8),
    )
    def test_timeout_always_in_bounds(self, name, observations):
        predictor = make_predictor(name, config(predictor=name))
        now = 0.0
        for key, gaps in observations:
            for gap in gaps:
                now += gap
                predictor.observe(key, gap, now)
        for key in range(6):
            timeout = predictor.timeout_for(key)
            assert predictor.min_idle <= timeout <= predictor.max_idle

    def test_resolve_inherits_engine_max_idle(self):
        predictor = resolve_predictor("ewma", 7.5)
        assert predictor.max_idle == 7.5
        assert predictor.timeout_for("cold") <= 7.5

    def test_resolve_rejects_disabled_idle_sweeps(self):
        with pytest.raises(ValueError):
            resolve_predictor("ewma", 0.0)


class TestEwmaEnvelope:
    @settings(max_examples=80, deadline=None)
    @given(gaps=GAPS)
    def test_estimate_stays_within_observed_envelope(self, gaps):
        predictor = EwmaTimeoutPredictor(config(predictor="ewma"))
        now = 0.0
        for gap in gaps:
            now += gap
            predictor.observe("flow", gap, now)
        estimate = predictor.estimate("flow")
        # Tiny relative slack: the convex combination is exact in real
        # arithmetic but each fold rounds twice in floating point.
        tol = 1e-9 * max(abs(g) for g in gaps)
        assert min(gaps) - tol <= estimate <= max(gaps) + tol

    @settings(max_examples=40, deadline=None)
    @given(gaps=GAPS)
    def test_ghost_return_restores_estimator_state(self, gaps):
        """An idle expiry whose key comes straight back must not reset
        the flow to the cold bucket."""
        predictor = EwmaTimeoutPredictor(config(predictor="ewma"))
        now = 0.0
        predictor.on_insert("flow", now)
        for gap in gaps:
            now += gap
            predictor.observe("flow", gap, now)
        timeout = predictor.timeout_for("flow")
        predictor.on_expire("flow", timeout + 0.1, now, timeout)
        assert predictor.estimate("flow") is None
        predictor.on_insert("flow", now + 0.1)
        assert predictor.premature_evictions == 1
        assert predictor.estimate("flow") is not None

    def test_constant_gap_converges_to_the_gap(self):
        predictor = EwmaTimeoutPredictor(config(predictor="ewma"))
        now = 0.0
        for _ in range(50):
            now += 2.0
            predictor.observe("flow", 2.0, now)
        assert predictor.estimate("flow") == pytest.approx(2.0)
        assert predictor.timeout_for("flow") == pytest.approx(
            min(2.0 * predictor.config.grace, predictor.max_idle)
        )


class TestLedgerBookkeeping:
    def test_dead_and_premature_counters(self):
        predictor = EwmaTimeoutPredictor(config(predictor="ewma"))
        # Never-reused entry expiring -> dead.
        predictor.on_insert("dead", 0.0)
        predictor.on_expire("dead", 17.0, 17.0, 16.0)
        assert predictor.dead_evictions == 1
        # Reused entry expiring, returning within the ghost window ->
        # premature (and not dead).
        predictor.on_insert("bounce", 0.0)
        predictor.observe("bounce", 1.0, 1.0)
        predictor.on_expire("bounce", 7.0, 8.0, 6.0)
        predictor.on_insert("bounce", 9.0)
        assert predictor.premature_evictions == 1
        assert predictor.dead_evictions == 1
        summary = predictor.summary()
        assert summary["expired"] == 2
        assert summary["dead_evictions"] == 1
        assert summary["premature_evictions"] == 1

    def test_forget_is_feedback_free(self):
        predictor = EwmaTimeoutPredictor(config(predictor="ewma"))
        predictor.on_insert("victim", 0.0)
        predictor.forget("victim")
        predictor.on_insert("victim", 1.0)
        assert predictor.expired == 0
        assert predictor.premature_evictions == 0
        assert predictor.dead_evictions == 0
