"""One fan-out: a run split into parts, each its own packet kernel.

The sharded engine runs one kernel per RSS shard and the fabric one
per switch — the multi-engine layout of off-path SmartNICs, where every
engine carries its own cache.  What both do for each part lives here:
the context its factories see, its config and telemetry hub (the
caller's own for a run of one in-process part, which is therefore the
classic engine bit for bit; else ``Telemetry.derive(name)``), its
private pipeline under churn, the error naming it, and the merge — the
only place under ``repro`` that folds results and registries.

Drivers keep how parts are scheduled (forked workers, inline, the
fabric's hop loop) and any clock: ``tests/test_wallclock_audit.py``
keeps this module simulated-time only.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import Telemetry
from ..obs.trace import TraceSinkError
from .engine import SimConfig
from .results import SimResult

__all__ = ["FanOut", "Part", "PartContext", "PartError", "merge_results"]


@dataclass(frozen=True)
class PartContext:
    """What a part's factories know about its place in the run.

    ``name`` is ``"shard<N>"`` or the switch name, and the suffix of the
    part's derived trace sink; ``parts`` is the run's part count (a
    factory that splits a total capacity divides by it).
    """

    name: str
    index: int
    parts: int


class PartError(RuntimeError):
    """A part raised, died, or could not report its result.

    Attributes:
        part: The failing part's name.
        partial: ``{name: SimResult}`` for every part that *did*
            complete — partial telemetry for post-mortems.
    """

    def __init__(
        self,
        part: str,
        message: str,
        partial: Optional[Mapping[str, SimResult]] = None,
    ):
        super().__init__(f"{part}: {message}")
        self.part = part
        self.partial = dict(partial or {})


@dataclass(frozen=True)
class Part:
    """One part's setup, from :meth:`FanOut.part`."""

    config: SimConfig
    telemetry: Optional[Telemetry]

    @property
    def registry(self) -> Optional[MetricsRegistry]:
        return self.telemetry.registry if self.telemetry is not None else None


class FanOut:
    """The parts of one run and the results they report.

    Args:
        names: One name per part, in merge order.
        config: The caller's config; each part runs a copy with its own
            telemetry hub.
        forked: Parts run in forked worker processes: each derives its
            hub (no descriptor crosses the fork) and already owns a
            copy of everything it inherited.
    """

    def __init__(
        self, names: Sequence[str], config: SimConfig, forked: bool = False
    ):
        self.config = config
        self.forked = forked
        self.contexts = tuple(
            PartContext(name, index, len(names))
            for index, name in enumerate(names)
        )
        #: ``{name: SimResult}`` of the parts that completed, in order.
        self.results: Dict[str, SimResult] = {}
        self._registries: Dict[str, Optional[MetricsRegistry]] = {}

    @contextmanager
    def part(self, context: PartContext, **overrides) -> Iterator[Part]:
        """Set up one part: its config (``overrides`` replace fields of
        the caller's) and its hub, closed on the way out — also when the
        part raised, so its sink keeps the events up to the failure."""
        parent = self.config.telemetry
        derived = parent is not None and (
            self.forked or len(self.contexts) > 1
        )
        tel = parent.derive(context.name) if derived else parent
        try:
            yield Part(replace(self.config, telemetry=tel, **overrides), tel)
        finally:
            if derived:
                tel.tracer.close()

    def private(self, pipeline):
        """The pipeline an in-process part runs on: ``pipeline``, or a
        deep copy of it when the run's churn mutates rules — parts that
        share a process run one after another, and each must start from
        the caller's rules, as a forked part does."""
        if self.config.churn is None or self.forked:
            return pipeline
        return copy.deepcopy(pipeline)

    @contextmanager
    def guard(self, name: str) -> Iterator[None]:
        """Name part ``name`` in anything raised inside the block: a
        :class:`TraceSinkError` stays one (path kept), anything else
        becomes a :class:`PartError` carrying the completed parts."""
        try:
            yield
        except TraceSinkError as exc:
            raise TraceSinkError(f"{name}: {exc}", path=exc.path) from exc
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
            raise PartError(name, message, self.results) from exc

    def done(self, name: str, result: SimResult, registry) -> None:
        """Record a completed part and its registry (``None`` without
        telemetry)."""
        self.results[name] = result
        self._registries[name] = registry

    def merge(self) -> Tuple[SimResult, Optional[MetricsRegistry]]:
        """The run's result and registry.  One part's come back as they
        are (its registry is the caller's own for an in-process run);
        ``None`` without telemetry."""
        names = [context.name for context in self.contexts]
        registries = [
            registry
            for registry in map(self._registries.get, names)
            if registry is not None
        ]
        if len(registries) > 1:
            registry = MetricsRegistry.merged(registries)
        else:
            registry = registries[0] if registries else None
        return merge_results([self.results[name] for name in names]), registry


def merge_results(results: Sequence[SimResult]) -> SimResult:
    """:meth:`SimResult.merge` over parts whose system names may carry
    an ``@<part>`` qualifier (the fabric's per-switch names), which the
    merged result drops."""
    return SimResult.merge([_unqualified(result) for result in results])


def _unqualified(result: SimResult) -> SimResult:
    base = result.system.split("@", 1)[0]
    if base == result.system:
        return result
    return replace(result, system=base)
