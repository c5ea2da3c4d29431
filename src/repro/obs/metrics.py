"""Metric primitives: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` holds named metric *families*; a family with
label names fans out into *children*, one per label-value combination
(the Prometheus data model, minus the server).  Everything is plain
Python — no client library — and exports to both the Prometheus text
exposition format and a JSON document that round-trips losslessly via
:meth:`MetricsRegistry.from_json`.

Children are plain objects with an ``inc``/``set``/``observe`` method and
a ``value`` attribute; instrumented hot paths bind children once (at
attach time) so a metric update is a single method call, not a label
lookup.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
]

LabelValues = Tuple[str, ...]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (occupancy, memo size, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """A fixed-bucket histogram with cumulative Prometheus semantics.

    ``bounds`` are the inclusive upper bounds of the finite buckets; an
    implicit ``+Inf`` bucket catches the rest.  ``counts[i]`` is the
    number of observations ``<= bounds[i]`` *non*-cumulatively (the
    exporter accumulates), matching how the values are stored in JSON.
    ``count`` is their total, so it is never stored beside them.
    """

    __slots__ = ("bounds", "counts", "sum")

    def __init__(self, bounds: Sequence[float]):
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be sorted: {bounds}")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0

    @property
    def count(self) -> int:
        """Observations so far: the buckets' total."""
        return sum(self.counts)

    def observe(self, value: float) -> None:
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def observe_bucketed(
        self, counts: Sequence[int], value_sum: float
    ) -> None:
        """Fold pre-bucketed counts (aligned to ``bounds`` + overflow)
        in one pass — equivalent to ``observe``-ing each underlying
        value, without the per-value call cost."""
        if len(counts) != len(self.counts):
            raise ValueError(
                f"expected {len(self.counts)} bucket counts, "
                f"got {len(counts)}"
            )
        own = self.counts
        for i, count in enumerate(counts):
            if count:
                own[i] += count
        self.sum += value_sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs, ``+Inf`` last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out


_KIND_CHILD = {"counter": Counter, "gauge": Gauge}


class MetricFamily:
    """One named metric, fanned out by label values."""

    __slots__ = (
        "name", "help", "kind", "label_names", "buckets", "merge", "_children"
    )

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        merge="sum",
    ):
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {kind!r}")
        if kind == "histogram" and not buckets:
            raise ValueError(f"histogram {name!r} needs bucket bounds")
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self.buckets = tuple(buckets) if buckets else None
        #: How merging folds it (see :meth:`MetricsRegistry.gauge`).
        self.merge = merge
        self._children: Dict[LabelValues, object] = {}

    def labels(self, *values: str):
        """The child for one label-value combination (created on demand)."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {len(values)} values"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self.buckets)
            else:
                child = _KIND_CHILD[self.kind]()
            self._children[key] = child
        return child

    def children(self) -> Iterable[Tuple[LabelValues, object]]:
        return sorted(self._children.items())

    def __len__(self) -> int:
        return len(self._children)


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    body = ",".join(
        f'{n}="{_escape(v)}"' for n, v in zip(names, values)
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """A namespace of metric families with text/JSON export."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def families(self) -> Iterable[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    # -- registration ----------------------------------------------------------

    def _register(self, family: MetricFamily) -> MetricFamily:
        existing = self._families.get(family.name)
        if existing is not None:
            if (
                existing.kind != family.kind
                or existing.label_names != family.label_names
            ):
                raise ValueError(
                    f"metric {family.name!r} re-registered with a "
                    f"different signature"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(
            MetricFamily(name, help_text, "counter", labels)
        )

    def gauge(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        merge="sum",
    ) -> MetricFamily:
        """Register a gauge and, with it, how :meth:`merge` folds it:
        ``"sum"`` for additive gauges (entries, capacity, memo sizes) or
        ``(numerator, denominator)`` — gauge families with the same
        labels — for a ratio recomputed from their merged values.
        """
        return self._register(
            MetricFamily(name, help_text, "gauge", labels, merge=merge)
        )

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float],
        labels: Sequence[str] = (),
    ) -> MetricFamily:
        return self._register(
            MetricFamily(name, help_text, "histogram", labels, buckets)
        )

    # -- export ----------------------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for label_values, child in family.children():
                labels = _format_labels(family.label_names, label_values)
                if family.kind == "histogram":
                    for bound, cumulative in child.cumulative():
                        le = _format_labels(
                            family.label_names + ("le",),
                            label_values + (_format_number(bound),),
                        )
                        lines.append(
                            f"{family.name}_bucket{le} {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{labels} "
                        f"{_format_number(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{labels} {child.count}")
                else:
                    lines.append(
                        f"{family.name}{labels} "
                        f"{_format_number(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def to_json(self) -> dict:
        """A lossless JSON document (see :meth:`from_json`)."""
        families = []
        for family in self.families():
            children = []
            for label_values, child in family.children():
                if family.kind == "histogram":
                    value = {
                        "counts": list(child.counts),
                        "sum": child.sum,
                        "count": child.count,
                    }
                else:
                    value = child.value
                children.append(
                    {"labels": list(label_values), "value": value}
                )
            families.append(
                {
                    "name": family.name,
                    "help": family.help,
                    "kind": family.kind,
                    "label_names": list(family.label_names),
                    "buckets": (
                        list(family.buckets) if family.buckets else None
                    ),
                    "children": children,
                }
            )
        return {"families": families}

    # -- merging ---------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s samples into this registry (returns ``self``).

        Merge semantics, pinned by ``tests/test_metrics_merge.py``:

        * **counters** sum;
        * **gauges** fold by the rule they were registered with (see
          :meth:`gauge`): the sharded engine's additive per-worker
          gauges — entries, capacity, memo sizes — sum, and a ratio
          such as occupancy is recomputed from its merged numerator and
          denominator;
        * **histograms** fold bucket-wise: ``counts`` add elementwise,
          ``sum`` adds — equivalent to observing the union of
          the underlying samples.

        Families absent from ``self`` are registered first, so merging
        into a fresh registry reconstructs the union.  A family present
        in both with a different kind, label set or bucket layout raises
        ``ValueError`` — shards must export the same catalog.

        The operation is associative and order-insensitive up to float
        summation order, which makes the parent-side fold over any
        number of workers well defined.
        """
        for family in other.families():
            mine = self._register(
                MetricFamily(
                    family.name,
                    family.help,
                    family.kind,
                    family.label_names,
                    family.buckets,
                    family.merge,
                )
            )
            if mine.buckets != family.buckets:
                raise ValueError(
                    f"metric {family.name!r} merged with different "
                    f"buckets: {mine.buckets} vs {family.buckets}"
                )
            for label_values, child in family.children():
                own = mine.labels(*label_values)
                if family.kind == "histogram":
                    for i, count in enumerate(child.counts):
                        own.counts[i] += count
                    own.sum += child.sum
                else:
                    own.value += child.value
        # Ratios last, from the numerators and denominators just merged.
        for family in self._families.values():
            if isinstance(family.merge, tuple):
                top, bottom = (self.get(name) for name in family.merge)
                for label_values, child in family._children.items():
                    whole = bottom.labels(*label_values).value
                    child.value = (
                        round(top.labels(*label_values).value / whole, 6)
                        if whole
                        else 0.0
                    )
        return self

    @classmethod
    def merged(
        cls, registries: Iterable["MetricsRegistry"]
    ) -> "MetricsRegistry":
        """A fresh registry holding the fold of ``registries`` in order."""
        out = cls()
        for registry in registries:
            out.merge(registry)
        return out

    @classmethod
    def from_json(cls, payload: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_json` output (samples, not
        merge rules: every rebuilt gauge merges as ``"sum"``; a
        histogram's ``count`` is its buckets' total, so the stored one
        is not read)."""
        registry = cls()
        for spec in payload.get("families", ()):
            family = registry._register(
                MetricFamily(
                    spec["name"],
                    spec["help"],
                    spec["kind"],
                    spec["label_names"],
                    spec.get("buckets"),
                )
            )
            for child_spec in spec.get("children", ()):
                child = family.labels(*child_spec["labels"])
                value = child_spec["value"]
                if family.kind == "histogram":
                    child.counts = list(value["counts"])
                    child.sum = value["sum"]
                elif family.kind == "counter":
                    child.value = value
                else:
                    child.set(value)
        return registry
