"""Span recorder for the traced benchmark run.

A span is one timed call into a layer: name, start, end
(``perf_counter_ns``) and the span that caused it.  The recorder keeps
a stack of open spans, so a span's *self time* is its duration minus
the time its child spans cover, and the self times of everything under
one root add up to that root's duration exactly.

Every span is folded into a per-name aggregate (calls, total, self).
Raw records are kept only for a seeded 1-in-N sample of *root* spans
(a span opened on an empty stack — one packet's lookup, one serving
batch) and everything beneath them, capped so a long run stays in
memory; the records of one root share its id.

This file knows nothing about the program being measured: callables
are handed in, wrapped, and put back by the caller.
"""

from __future__ import annotations

import importlib
import json
import random
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Union

#: Percentiles a latency sample may be summarised at, ascending, each
#: with the number of samples of which one lies beyond it.
PERCENTILE_LADDER = ((50.0, 2), (90.0, 10), (99.0, 100), (99.9, 1000))

#: A percentile is reported only with at least this many samples
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10

SpanName = Union[str, Callable[[Optional[str]], str]]


class MissingCallable(LookupError):
    """A name the trace was told to wrap no longer exists."""


class Recorder:
    """Stack-based span recorder with per-name aggregates.

    Attributes:
        aggregates: ``name -> [calls, total_ns, self_ns]``.
        root_ns: Summed duration of root spans — what the named spans
            account for; the caller's wall time minus this is the
            residual spent outside every wrapped callable.
        records: Sampled raw spans as
            ``(span_id, parent_id, root_id, name, start_ns, end_ns)``.
    """

    def __init__(
        self,
        sample_every: int = 64,
        max_records: int = 50_000,
        seed: int = 0,
    ):
        if sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        self.sample_every = sample_every
        self.max_records = max_records
        self.aggregates: Dict[str, List[int]] = {}
        self.records: List[tuple] = []
        self.root_ns = 0
        self.roots = 0
        self.sampled_roots = 0
        self._rng = random.Random(seed)
        self._until_sample = self._next_gap()
        # One frame per open span: [child_ns, name, span_id, root_id].
        self._stack: List[list] = []
        # Wrappers pass calls straight through until recording() opens.
        self._muted = True
        self._next_id = 0

    # -- recording ------------------------------------------------------------

    def _next_gap(self) -> int:
        """Roots until the next sampled one: uniform, mean
        ``sample_every`` — one draw per sample, not per span."""
        return self._rng.randrange(1, 2 * self.sample_every)

    def _open(self, name: SpanName) -> list:
        stack = self._stack
        if stack:
            parent = stack[-1]
            if not isinstance(name, str):
                name = name(parent[1])
            if parent[3] is None:
                frame = [0, name, None, None]
            else:
                self._next_id += 1
                frame = [0, name, self._next_id, parent[3]]
        else:
            if not isinstance(name, str):
                name = name(None)
            self.roots += 1
            self._until_sample -= 1
            if self._until_sample:
                frame = [0, name, None, None]
            else:
                self._until_sample = self._next_gap()
                if len(self.records) < self.max_records:
                    self.sampled_roots += 1
                    self._next_id += 1
                    frame = [0, name, self._next_id, self._next_id]
                else:
                    frame = [0, name, None, None]
        stack.append(frame)
        return frame

    def _close(self, frame: list, start: int, end: int) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        aggregate = self.aggregates.get(frame[1])
        if aggregate is None:
            aggregate = self.aggregates[frame[1]] = [0, 0, 0]
        aggregate[0] += 1
        aggregate[1] += duration
        aggregate[2] += duration - frame[0]
        if stack:
            stack[-1][0] += duration
            parent_id = stack[-1][2]
        else:
            self.root_ns += duration
            parent_id = None
        if frame[2] is not None:
            self.records.append(
                (frame[2], parent_id, frame[3], frame[1], start, end)
            )

    def timed(self, fn: Callable, name: SpanName) -> Callable:
        """Wrap ``fn`` so every call is recorded as a span.

        ``name`` is the span name, or a callable taking the enclosing
        span's name (``None`` at the root) and returning one — for a
        callable whose layer depends on who called it.
        """
        open_span = self._open
        close_span = self._close
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            if self._muted:
                return fn(*args, **kwargs)
            frame = open_span(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(frame, start, clock())

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def recording(self):
        """Record spans for the ``with`` body only — set-up that runs
        the same callables before the timed section stays out."""
        self._muted = False
        try:
            yield self
        finally:
            self._muted = True

    @contextmanager
    def span(self, name: str, mute: bool = False):
        """Record the ``with`` body as a span.

        ``mute=True`` suspends every :meth:`timed` wrapper inside the
        body: the calls still run but are not recorded, so the whole
        body lands in this span's self time and in no other aggregate.
        """
        if self._muted:
            yield
            return
        frame = self._open(name)
        self._muted = mute
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._muted = False
            self._close(frame, start, end)

    # -- reading --------------------------------------------------------------

    def self_ns(self, name: str) -> int:
        aggregate = self.aggregates.get(name)
        return aggregate[2] if aggregate else 0

    def calls(self, name: str) -> int:
        aggregate = self.aggregates.get(name)
        return aggregate[0] if aggregate else 0

    def to_dict(self) -> dict:
        return {
            "clock": "perf_counter_ns",
            "roots": self.roots,
            "root_ns": self.root_ns,
            "aggregates": {
                name: {"calls": a[0], "total_ns": a[1], "self_ns": a[2]}
                for name, a in sorted(self.aggregates.items())
            },
            "sample": {
                "every": self.sample_every,
                "roots": self.sampled_roots,
                "fields": [
                    "span_id", "parent_id", "root_id", "name",
                    "start_ns", "end_ns",
                ],
                "records": self.records,
            },
        }

    def write(self, path, extra: Optional[dict] = None) -> None:
        payload = dict(extra or {})
        payload.update(self.to_dict())
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")


# -- wrapping named callables -------------------------------------------------


def resolve(target: str):
    """Resolve ``"package.module:Attr.attr"`` to ``(owner, attr_name)``.

    Raises :class:`MissingCallable` when the module, an intermediate
    attribute or the final callable is gone — a renamed layer must fail
    the traced run, never read as zero time.
    """
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as error:
        raise MissingCallable(f"{target}: {error}") from None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingCallable(f"{target}: no attribute {part!r}")
    if not callable(getattr(owner, parts[-1], None)):
        raise MissingCallable(f"{target}: no callable {parts[-1]!r}")
    return owner, parts[-1]


def install(
    recorder: Recorder, targets: Sequence[tuple]
) -> List[str]:
    """Wrap every ``(span name, target)`` in place; returns the targets
    that could not be resolved (nothing is wrapped if any is missing)."""
    resolved = []
    missing = []
    for name, target in targets:
        try:
            resolved.append((name, *resolve(target)))
        except MissingCallable as error:
            missing.append(str(error))
    if missing:
        return missing
    for name, owner, attr in resolved:
        setattr(owner, attr, recorder.timed(getattr(owner, attr), name))
    return []


# -- percentiles --------------------------------------------------------------


def supported_percentile(samples: int) -> Optional[float]:
    """The highest ladder percentile with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, or ``None``."""
    best = None
    for pct, one_in in PERCENTILE_LADDER:
        if samples >= MIN_SAMPLES_BEYOND * one_in:
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
