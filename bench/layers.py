"""Where the traced run puts its spans, and the sampled shadow oracle.

Layers are this repository's module names.  Each span wraps one public
callable at class (or module) level, in the traced process only, from
here — nothing inside ``src/`` knows it is being timed.
"""

from __future__ import annotations

import random

from repro.pipeline import Disposition

import spans

PIPELINE_SPANS = ("pipeline.execute", "pipeline.replay")


def _tss_lookup_name(parent):
    """``TupleSpaceClassifier.lookup`` serves both the caches and the
    slow-path pipeline tables; the enclosing span says which."""
    if parent in PIPELINE_SPANS:
        return "classify.tss.lookup.pipeline"
    return "classify.tss.lookup.cache"


#: ``(span name, "module:Owner.attr")`` — wrapped in place by
#: :func:`spans.install`.  ``core.partition`` is not here: it is timed
#: through ``GigaflowSystem(partitioner=...)``.
TARGETS = (
    ("sim.fastpath.lookup", "repro.sim.fastpath:FastPathIndex.lookup"),
    ("core.gigaflow.lookup", "repro.core.gigaflow:GigaflowCache.lookup_traced"),
    ("cache.megaflow.lookup", "repro.cache.megaflow:MegaflowCache.lookup_traced"),
    ("core.ltm.lookup", "repro.core.ltm:LtmTable.lookup"),
    (_tss_lookup_name, "repro.classify.tss:TupleSpaceClassifier.lookup"),
    ("classify.tss.update", "repro.classify.tss:TupleSpaceClassifier.insert"),
    ("classify.tss.update", "repro.classify.tss:TupleSpaceClassifier.remove"),
    ("pipeline.execute", "repro.pipeline.pipeline:Pipeline.execute"),
    ("pipeline.replay", "repro.pipeline.pipeline:Pipeline.replay"),
    # The name GigaflowCache.install_traversal calls, in its module.
    ("core.rulegen", "repro.core.gigaflow:build_ltm_rules"),
    ("core.gigaflow.install", "repro.core.gigaflow:GigaflowCache.install_traversal"),
    ("cache.megaflow.install", "repro.cache.megaflow:MegaflowCache.install_traversal"),
    ("cache.evict_idle", "repro.core.gigaflow:GigaflowCache.evict_idle"),
    ("cache.evict_idle", "repro.cache.megaflow:MegaflowCache.evict_idle"),
    ("sim.churn.advance", "repro.sim.churn:ChurnRuntime.advance"),
    ("core.revalidation.process", "repro.core.revalidation:IncrementalRevalidator.process"),
    ("obs.telemetry.hooks", "repro.obs.telemetry:Telemetry.on_install"),
    ("obs.telemetry.hooks", "repro.obs.telemetry:Telemetry.on_sweep"),
    ("obs.telemetry.hooks", "repro.obs.telemetry:Telemetry.sample"),
    ("obs.telemetry.hooks", "repro.obs.telemetry:Telemetry.finalize"),
    ("serve.process", "repro.serve:ServingDriver.process"),
)

#: Every span name a traced run reports (``sim.loop`` is the residual).
SPAN_NAMES = (
    "sim.fastpath.lookup",
    "core.gigaflow.lookup",
    "cache.megaflow.lookup",
    "core.ltm.lookup",
    "classify.tss.lookup.cache",
    "classify.tss.lookup.pipeline",
    "classify.tss.update",
    "pipeline.execute",
    "pipeline.replay",
    "core.partition",
    "core.rulegen",
    "core.gigaflow.install",
    "cache.megaflow.install",
    "cache.evict_idle",
    "sim.churn.advance",
    "core.revalidation.process",
    "obs.telemetry.hooks",
    "serve.process",
)

ORACLE_SPAN = "bench.oracle"


class Oracle:
    """Shadow slow path for a seeded 1-in-N sample of cache hits.

    A hit must give what the pipeline would: the same disposition, the
    same output port and the same rewritten flow — the comparison
    ``tests/test_fidelity.py`` makes on static pipelines, here made
    while the run (and, on ``churn_reval``, the rule set) moves.

    A mismatch while some cache entry still lags the pipeline's
    generation is a *stale* hit: budgeted revalidation has not reached
    it yet, which the churn model allows by design.  Stale hits are
    counted, and reported, apart from mismatches nothing excuses.
    """

    def __init__(self, every: int = 64, seed: int = 0):
        self.every = every
        self._rng = random.Random(seed)
        self._until_check = self._rng.randrange(1, 2 * every)
        self.pipeline = None
        self.checked = 0
        self.mismatches = 0
        self.stale = 0

    def wants(self) -> bool:
        """True for one hit in ``every`` on average (uniform gaps, one
        draw per check — this runs on every hit of the traced pass)."""
        self._until_check -= 1
        if self._until_check:
            return False
        self._until_check = self._rng.randrange(1, 2 * self.every)
        return True

    def check(self, cache, flow, result) -> None:
        pipeline = self.pipeline
        traversal = pipeline.execute(flow, record_stats=False)
        if traversal.disposition == Disposition.OUTPUT:
            port = traversal.steps[-1].actions.output_port()
            same_verdict = result.output_port == port
        else:
            same_verdict = result.actions.drops()
        same_flow = result.actions.apply(flow) == traversal.final_flow
        self.checked += 1
        if same_verdict and same_flow:
            return
        self.mismatches += 1
        generation = pipeline.generation
        if any(entry.generation < generation for entry in cache):
            self.stale += 1


class Tracing:
    """The traced run's recorder and oracle, and their installation."""

    def __init__(self, seed: int, sample_every: int = 64, oracle_every: int = 64):
        self.recorder = spans.Recorder(sample_every=sample_every, seed=seed)
        self.oracle = Oracle(every=oracle_every, seed=seed)

    def partitioner(self):
        """``disjoint_partition`` (the ``GigaflowSystem`` default), timed."""
        from repro.core.partition import disjoint_partition

        return self.recorder.timed(disjoint_partition, "core.partition")

    def install(self) -> None:
        """Wrap every target in place; raises
        :class:`spans.MissingCallable` naming all that are gone."""
        recorder = self.recorder
        oracle = self.oracle
        missing = spans.install(recorder, TARGETS)
        if missing:
            raise spans.MissingCallable(
                "traced run cannot wrap: " + "; ".join(missing)
            )
        telemetry, _ = spans.resolve("repro.obs.telemetry:Telemetry.attach")
        fastpath, _ = spans.resolve("repro.sim.fastpath:FastPathIndex.lookup")

        # Telemetry.attach shadows on_lookup with a per-instance closure,
        # so a class-level wrap would never run: wrap the closure once
        # it is bound.
        attach = telemetry.attach

        def attach_then_time_hook(self, *args, **kwargs):
            attach(self, *args, **kwargs)
            self.on_lookup = recorder.timed(
                self.on_lookup, "obs.telemetry.hooks"
            )

        telemetry.attach = attach_then_time_hook

        # Every packet's cache lookup goes through here: the one place
        # the oracle sees (flow, result) pairs without touching a loop.
        timed_lookup = fastpath.lookup

        def lookup_then_check(self, flow, now=0.0):
            result = timed_lookup(self, flow, now)
            if result.hit and oracle.wants():
                with recorder.span(ORACLE_SPAN, mute=True):
                    oracle.check(self.cache, flow, result)
            return result

        fastpath.lookup = lookup_then_check
