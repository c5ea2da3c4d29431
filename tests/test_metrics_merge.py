"""Property tests for :meth:`MetricsRegistry.merge` (sharded-run folds).

The sharded engine folds N per-worker registries into one; for that
fold to be trustworthy it must be **associative** and
**order-insensitive**, and the merged Prometheus exposition must equal
the per-sample sum of the workers' expositions.  Hypothesis drives all
three over randomly generated registries with integer samples (integer
addition is exact, so equality assertions are strict — no
float-tolerance escape hatch); a float-valued spot check, the failure
modes (kind / label / bucket signature mismatches) and the gauges that
are *not* additive (a ratio, an encoded state) ride along.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.obs import MetricsRegistry

from prometheus_text import parse_prometheus_text

BUCKETS = (1.0, 5.0, 25.0)
CACHES = ("gigaflow", "megaflow")
RESULTS = ("hit", "miss")


def build_registry(counter_incs, gauge_sets, observations):
    """Materialise one worker's registry from drawn samples.

    ``counter_incs``: list of (cache, result, amount);
    ``gauge_sets``: list of (cache, amount) — summed per child, matching
    the additive gauges the engine exports (entries, memo sizes);
    ``observations``: list of (cache, value) histogram samples.
    """
    registry = MetricsRegistry()
    counters = registry.counter(
        "repro_test_lookups_total", "lookups", ("cache", "result")
    )
    gauges = registry.gauge("repro_test_entries", "entries", ("cache",))
    histograms = registry.histogram(
        "repro_test_depth", "depth", BUCKETS, ("cache",)
    )
    for cache, result, amount in counter_incs:
        counters.labels(cache, result).inc(amount)
    for cache, amount in gauge_sets:
        child = gauges.labels(cache)
        child.set(child.value + amount)
    for cache, value in observations:
        histograms.labels(cache).observe(value)
    return registry


registry_strategy = st.builds(
    build_registry,
    st.lists(
        st.tuples(
            st.sampled_from(CACHES),
            st.sampled_from(RESULTS),
            st.integers(min_value=0, max_value=1000),
        ),
        max_size=8,
    ),
    st.lists(
        st.tuples(
            st.sampled_from(CACHES),
            st.integers(min_value=0, max_value=500),
        ),
        max_size=4,
    ),
    st.lists(
        st.tuples(
            st.sampled_from(CACHES),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=12,
    ),
)


def registry_state(registry):
    """Canonical comparable state (JSON doc is deterministic/sorted)."""
    return registry.to_json()


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(registry_strategy, registry_strategy, registry_strategy)
    def test_associative(self, a, b, c):
        left = MetricsRegistry.merged([a, b]).merge(c)
        right = MetricsRegistry.merged([b, c])
        right = MetricsRegistry.merged([a, right])
        assert registry_state(left) == registry_state(right)

    @settings(max_examples=60, deadline=None)
    @given(registry_strategy, registry_strategy, registry_strategy)
    def test_order_insensitive(self, a, b, c):
        forward = MetricsRegistry.merged([a, b, c])
        backward = MetricsRegistry.merged([c, b, a])
        rotated = MetricsRegistry.merged([b, c, a])
        assert registry_state(forward) == registry_state(backward)
        assert registry_state(forward) == registry_state(rotated)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(registry_strategy, min_size=1, max_size=5))
    def test_merged_prometheus_equals_sum_of_worker_exports(self, workers):
        """Every sample line of the merged exposition is the sum of the
        corresponding per-worker sample lines — the property that makes
        ``repro stats`` correct over a sharded run."""
        merged = parse_prometheus_text(
            MetricsRegistry.merged(workers).to_prometheus()
        )
        per_worker = [
            parse_prometheus_text(worker.to_prometheus())
            for worker in workers
        ]
        for family, samples in merged.items():
            for sample, value in samples.items():
                expected = sum(
                    parsed.get(family, {}).get(sample, 0)
                    for parsed in per_worker
                )
                assert value == expected, sample

    @settings(max_examples=60, deadline=None)
    @given(st.lists(registry_strategy, min_size=1, max_size=4))
    def test_json_round_trip_through_merge(self, workers):
        """Registries rebuilt from their ``to_json`` documents fold
        identically to the live ones."""
        shipped = MetricsRegistry.merged(
            MetricsRegistry.from_json(worker.to_json())
            for worker in workers
        )
        direct = MetricsRegistry.merged(workers)
        assert registry_state(shipped) == registry_state(direct)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(CACHES),
                    st.integers(min_value=0, max_value=50),
                ),
                max_size=10,
            ),
            min_size=2,
            max_size=4,
        )
    )
    def test_histogram_fold_equals_observing_concatenation(self, batches):
        per_worker = [build_registry([], [], batch) for batch in batches]
        merged = MetricsRegistry.merged(per_worker)
        combined = build_registry(
            [], [], [obs for batch in batches for obs in batch]
        )
        assert registry_state(merged) == registry_state(combined)


class TestMergeFailureModes:
    def test_kind_mismatch_raises(self):
        a = MetricsRegistry()
        a.counter("repro_x", "x")
        b = MetricsRegistry()
        b.gauge("repro_x", "x")
        with pytest.raises(ValueError, match="signature"):
            a.merge(b)

    def test_label_mismatch_raises(self):
        a = MetricsRegistry()
        a.counter("repro_x", "x", ("cache",))
        b = MetricsRegistry()
        b.counter("repro_x", "x", ("cache", "result"))
        with pytest.raises(ValueError, match="signature"):
            a.merge(b)

    def test_bucket_mismatch_raises(self):
        a = MetricsRegistry()
        a.histogram("repro_h", "h", (1.0, 2.0))
        b = MetricsRegistry()
        b.histogram("repro_h", "h", (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="bucket"):
            a.merge(b)

    def test_merge_into_empty_reconstructs(self):
        worker = build_registry(
            [("gigaflow", "hit", 5)], [("gigaflow", 3)], [("gigaflow", 2)]
        )
        rebuilt = MetricsRegistry.merged([worker])
        assert registry_state(rebuilt) == registry_state(worker)
        # ... and the originals are untouched by the fold.
        assert worker.get("repro_test_lookups_total") is not None

    def test_float_values_merge_within_tolerance(self):
        left = MetricsRegistry()
        left.gauge("repro_f", "f").labels().set(0.1)
        right = MetricsRegistry()
        right.gauge("repro_f", "f").labels().set(0.2)
        merged = MetricsRegistry.merged([left, right])
        value = merged.get("repro_f").labels().value
        assert math.isclose(value, 0.3, rel_tol=1e-12)


class TestNonAdditiveGauges:
    """Gauges whose merged value is not the sum of the workers' values:
    the rule is declared where the family is registered."""

    @staticmethod
    def worker(entries, capacity):
        registry = MetricsRegistry()
        registry.gauge("repro_t_entries", "e", ("cache",)).labels("gf").set(
            entries
        )
        registry.gauge("repro_t_capacity", "c", ("cache",)).labels("gf").set(
            capacity
        )
        registry.gauge(
            "repro_t_occupancy", "o", ("cache",),
            merge=("repro_t_entries", "repro_t_capacity"),
        ).labels("gf").set(round(entries / capacity, 6))
        return registry

    def test_ratio_recomputed_from_merged_parts(self):
        workers = [self.worker(64, 64), self.worker(16, 64)]
        for order in (workers, workers[::-1]):
            merged = MetricsRegistry.merged(order)
            assert merged.get("repro_t_entries").labels("gf").value == 80
            assert merged.get("repro_t_occupancy").labels("gf").value == 0.625
        # Associative: a ratio of sums, not a sum (or mean) of ratios.
        nested = MetricsRegistry.merged(
            [MetricsRegistry.merged(workers), self.worker(0, 128)]
        )
        assert nested.get("repro_t_occupancy").labels("gf").value == 0.3125

    def test_four_shard_run_scrapes_a_real_occupancy(self):
        """The case that scraped ``repro_cache_occupancy_ratio 4``: four
        inline shards, each full at 256/256."""
        from conftest import seeded_trace, seeded_workload
        from repro.obs import Telemetry
        from repro.sim import GigaflowSystem, ShardedSimulator, SimConfig

        workload = seeded_workload()
        driver = ShardedSimulator(
            workload.pipeline,
            lambda _context: GigaflowSystem(num_tables=4, table_capacity=8),
            SimConfig(telemetry=Telemetry()),
            shards=4,
            mode="inline",
        )
        result = driver.run(seeded_trace(workload))
        scraped = parse_prometheus_text(driver.registry.to_prometheus())
        label = '{cache="gigaflow"}'
        entries = scraped["repro_cache_entries"]["repro_cache_entries" + label]
        capacity = scraped["repro_cache_capacity"][
            "repro_cache_capacity" + label
        ]
        assert capacity == 4 * 32 and entries > capacity / 2
        assert scraped["repro_cache_occupancy_ratio"] == {
            "repro_cache_occupancy_ratio" + label: round(
                entries / capacity, 6
            )
        }
        # The registry's merged terms are the merged result's.
        assert (entries, capacity) == (result.entry_count, result.capacity)
