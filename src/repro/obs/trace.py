"""Structured per-packet trace events with an interned, allocation-lean ring.

A :class:`Tracer` collects events into a bounded in-memory ring buffer
and, optionally, streams them to a buffered JSONL sink.  Tracing is
*opt-in twice over*: instrumented code only reaches a tracer through an
attached :class:`~repro.obs.telemetry.Telemetry`, and every emission
site guards on :attr:`Tracer.enabled` (plus the per-event-type
:attr:`Tracer.mask`) — with telemetry detached (the default) the hot
paths pay exactly one attribute check.

Hot-path representation
-----------------------

The ring does **not** hold :class:`TraceEvent` objects.  Each record is
one flat tuple ``(ts, code, value, value, ...)`` whose layout is fixed
by the event type's row in :data:`EVENTS`:

* the event type is an interned small-int *code* (the row's index),
* flow identifiers are stored as raw 32-bit ints and only formatted to
  the stable ``"%08x"`` string on decode.

:class:`TraceEvent` objects (and JSONL dicts) are materialized *lazily*
by :meth:`Tracer.events` / :meth:`Tracer.drain` / the sink flush — the
per-event cost while tracing is one tuple allocation plus one C-level
list append, no dicts, no string formatting, no ``json.dumps``.

Ring discipline is *amortized*: :attr:`Tracer.append` is the backing
list's own bound ``append`` (no Python frame per event), so overflow
past ``capacity`` is not detected per event.  Instead every read
boundary — :meth:`Tracer.events`, :meth:`Tracer.drain`,
:attr:`Tracer.dropped` — and :meth:`Tracer.close` first *sync* through
:meth:`Tracer.flush` (which the telemetry hub also calls at each sweep
boundary): unwritten records stream to the JSONL sink in one batch, then
the buffer is trimmed back to the newest ``capacity`` records and the
trim is charged to ``dropped``.  Observable semantics are exactly those
of a per-event ring (the sink sees every emitted event; the ring keeps
the last ``capacity``); the transient buffer overshoot between syncs is
bounded by the event volume of one sweep interval.

A tracer that owns its sink closes it on garbage collection as a safety
net, but long-lived callers should ``close()`` (or use the tracer as a
context manager) to bound tail loss on crash.

The event vocabulary is the :data:`EVENTS` table below, and nothing
else: every name a tracer takes (:meth:`Tracer.emit`,
:meth:`Tracer.code_of`, :meth:`Tracer.set_events`,
:meth:`Tracer.wants`) must be one of its rows, or it raises
``ValueError``.  ``docs/observability.md`` ("Trace-event schema") says
when each event fires, and ``tests/test_obs_catalog.py`` keeps the two
in step.
"""

from __future__ import annotations

import json
from typing import (
    IO,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

__all__ = [
    "TraceEvent",
    "TraceSinkError",
    "Tracer",
    "EVENTS",
    "flow_id",
]

EV_LOOKUP_HIT = "lookup_hit"
EV_LOOKUP_MISS = "lookup_miss"
EV_LTM_PROBE = "ltm_probe"
EV_INSTALL = "install"
EV_EVICT = "evict"
EV_REVALIDATE = "revalidate"
EV_FASTPATH_REPLAY = "fastpath_replay"
EV_FASTPATH_INVALIDATE = "fastpath_invalidate"
EV_SWEEP = "sweep"
EV_SNAPSHOT = "snapshot"
EV_MODE_SWITCH = "mode_switch"
EV_HOP = "hop"

#: The builtin vocabulary, declared once: ``(name, decode schema)`` per
#: row.  Everything else follows from a row's position — its interned
#: code is the row index and its mask bit ``1 << code`` — so adding an
#: event is one row here (plus its ``EV_`` name above).  Codes never
#: leave the process — sinks, decoded events and the fan-out's event
#: filter carry names — so a row goes when its event does.
EVENTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (EV_LOOKUP_HIT, ("cache", "flow", "tables_hit", "groups_probed")),
    (EV_LOOKUP_MISS, ("cache", "flow", "tables_hit", "groups_probed")),
    (EV_LTM_PROBE, ("cache", "table", "tag", "groups", "matched")),
    (EV_INSTALL, ("cache", "traversal_length", "rules_generated",
                  "rules_installed")),
    (EV_EVICT, ("cache", "reason", "count")),
    (EV_REVALIDATE, ("cache", "verdict", "lookups")),
    (EV_FASTPATH_REPLAY, ("cache", "flow", "tables_hit", "groups_probed")),
    (EV_FASTPATH_INVALIDATE, ("cache", "flow")),
    (EV_SWEEP, ("cache", "evicted")),
    (EV_SNAPSHOT, ("cache", "entry_count", "capacity", "occupancy",
                   "per_table", "epoch", "epoch_delta", "ages")),
    (EV_MODE_SWITCH, ("cache", "from", "to")),
    (EV_HOP, ("cache", "flow", "hop", "path_len")),
)


def flow_id(flow) -> Optional[int]:
    """A compact stable flow identifier as a raw 32-bit int.

    ``FlowKey`` hashes its tuple of int values, and builtin ``hash`` of
    ints is the same in every interpreter — only str and bytes hashes
    are salted, and whatever is keyed by those goes through
    ``zlib.crc32`` (DESIGN.md §5, "Determinism") — so trace reports are
    deterministic.  The per-packet hooks inline this;
    ``tests/test_obs_catalog.py`` pins the agreement.
    """
    if flow is None:
        return None
    return hash(flow) & 0xFFFFFFFF


#: Housekeeping stride for the generic :meth:`Tracer.emit` path: after
#: this many records accumulate past the last sync, emit() triggers a
#: sink flush + ring trim itself (instrumented hot paths rely on the
#: telemetry sweep cadence instead).
FLUSH_EVERY = 4096


class TraceSinkError(RuntimeError):
    """A trace sink could not be opened or written.

    Raised instead of the bare :class:`OSError` so every failure
    carries *which* sink broke — load-bearing in the sharded/fabric
    fan-out, where many derived ``<path>.shard<N>`` / ``<path>.<switch>``
    sinks are in flight and a silent truncation (or a worker dying
    mid-run on a full disk) would otherwise be indistinguishable from a
    clean run.  :attr:`path` holds the sink path when known.
    """

    def __init__(self, message: str, path: Optional[str] = None):
        super().__init__(message)
        self.path = path


class TraceEvent:
    """One structured event: a timestamp, a type, and its
    :data:`EVENTS` row's fields by name.

    Materialized lazily from the tracer's flat ring records — holding a
    ``TraceEvent`` never aliases tracer internals.
    """

    __slots__ = ("ts", "event", "fields")

    def __init__(self, ts: float, event: str, fields: dict):
        self.ts = ts
        self.event = event
        self.fields = fields

    def to_dict(self) -> dict:
        out = {"ts": self.ts, "event": self.event}
        out.update(self.fields)
        return out

    def __repr__(self) -> str:
        return f"TraceEvent(ts={self.ts}, event={self.event!r}, {self.fields!r})"


class Tracer:
    """Bounded ring buffer of interned trace records, optional JSONL sink.

    Attributes:
        enabled: The gate every emission site checks.  Constructing a
            disabled tracer and never flipping this guarantees zero
            events and (near-)zero overhead.
        mask: Int bitmask over interned event codes; emission sites
            test ``mask & (1 << code)`` after ``enabled``.  ``-1``
            (all bits set) traces everything; :meth:`set_events`
            restricts it to a named subset so e.g. only ``ltm_probe`` +
            ``fastpath_invalidate`` are recorded while every other site
            stays at its two-comparison fast exit.
        capacity: Ring-buffer size; older events are dropped once full
            (``dropped`` counts them).  The JSONL sink, when set, sees
            *every* emitted event regardless of ring wraparound.
        emitted: Total events recorded since construction (events
            masked out are never emitted and do not count).
        dropped: Events expelled from the ring by wraparound.
        append: The hot-path entry point call sites use after checking
            :attr:`enabled` and the :attr:`mask` bit.  Bound directly to
            the backing list's ``append`` — see the module docstring's
            amortized-ring discipline.
        sink_path: The sink's filesystem path when the sink was opened
            from a string (None for caller-owned IO objects) — what the
            sharded engine derives per-worker ``.shard<N>`` paths from.

    ``exclusive=True`` opens a path sink with ``"x"`` instead of
    ``"w"``, so a pre-existing file raises :class:`TraceSinkError`
    instead of being silently truncated — the mode the sharded and
    fabric fan-outs use for their derived per-worker sinks, where a
    stale file from an earlier run mixing with new output is the
    hazard.  All open/write/flush failures surface as
    :class:`TraceSinkError` naming the sink.
    """

    def __init__(
        self,
        capacity: int = 65536,
        enabled: bool = True,
        sink: Union[None, str, IO[str]] = None,
        events: Optional[Iterable[str]] = None,
        exclusive: bool = False,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        # The ring: a plain list, mutated only in place (identity is
        # load-bearing — self.append aliases its bound append).
        self._buf: List[tuple] = []
        self.append = self._buf.append
        #: Records trimmed off the ring (wraparound), synced lazily.
        self._dropped = 0
        #: Records handed out destructively by drain().
        self._taken = 0
        #: Records already encoded+written to the sink.
        self._sink_written = 0
        #: Buffer length at the end of the last sync (emit()'s
        #: housekeeping stride counts from here).
        self._synced_len = 0
        # Interning tables, derived from EVENTS: names, codes (row
        # index) and decode schemas.
        self._event_names: List[str] = [name for name, _ in EVENTS]
        self._event_codes: Dict[str, int] = {
            name: code for code, name in enumerate(self._event_names)
        }
        self._schemas: List[tuple] = [fields for _, fields in EVENTS]
        self.event_filter: Optional[frozenset] = None
        self.mask = -1
        if events is not None:
            self.set_events(events)
        self._sink: Optional[IO[str]] = None
        self._owns_sink = False
        self.sink_path: Optional[str] = None
        if isinstance(sink, str):
            try:
                self._sink = open(
                    sink, "x" if exclusive else "w", encoding="utf-8"
                )
            except OSError as exc:
                raise TraceSinkError(
                    f"cannot open trace sink {sink!r}: {exc}", path=sink
                ) from exc
            self._owns_sink = True
            self.sink_path = sink
        elif sink is not None:
            self._sink = sink

    @property
    def emitted(self) -> int:
        """Total events recorded (invariant under syncs and drains)."""
        return self._dropped + self._taken + len(self._buf)

    @property
    def dropped(self) -> int:
        """Events expelled from the ring by wraparound (syncs first)."""
        self.flush()
        return self._dropped

    def __len__(self) -> int:
        # Ring occupancy: overshoot past capacity is already doomed to
        # the next trim, so never report it.
        return min(len(self._buf), self.capacity)

    # -- configuration ----------------------------------------------------------

    def set_events(self, events: Optional[Iterable[str]]) -> None:
        """Restrict tracing to the named event types (None = all)."""
        if events is None:
            self.event_filter = None
            self.mask = -1
            return
        names = frozenset(events)
        mask = 0
        for name in names:
            mask |= 1 << self.code_of(name)
        self.event_filter = names
        self.mask = mask

    def code_of(self, event: str) -> int:
        """The code ``event`` records under (``1 << code`` is its
        :attr:`mask` bit) — what a per-packet site binds once to test
        the mask and :attr:`append` inline.  Raises ``ValueError`` for
        a name :data:`EVENTS` does not declare."""
        code = self._event_codes.get(event)
        if code is None:
            raise ValueError(
                f"undeclared trace event {event!r} "
                f"(declared: {', '.join(self._event_names)})"
            )
        return code

    def wants(self, event: str) -> bool:
        """True when ``event`` would currently be recorded."""
        code = self.code_of(event)
        return self.enabled and bool(self.mask & (1 << code))

    # -- emission ---------------------------------------------------------------
    #
    # (The hot-path entry point is the *attribute* ``append`` — the
    # backing list's own bound append, assigned in __init__.)

    def emit(self, ts: float, event: str, *values) -> None:
        """Record one event by name if it is wanted — the one emit
        helper every instrumented site that is not per-packet calls.

        ``event`` is an :data:`EVENTS` row's name (on an enabled tracer
        anything else raises ``ValueError``, as :meth:`code_of` does;
        a disabled one returns before reading it) and ``values`` its
        row's fields, in order; the record is stored flat,
        ``(ts, code, *values)``.  The per-packet sites bypass this for
        :attr:`append` with the same flat record and a pre-bound
        :meth:`code_of`.
        """
        if not self.enabled:
            return
        code = self._event_codes.get(event)
        if code is None:
            code = self.code_of(event)  # raises: not an EVENTS row
        if not self.mask & (1 << code):
            return
        buf = self._buf
        buf.append((ts, code, *values))
        # Self-housekeeping for engine-less callers: sink batches and
        # ring trims every FLUSH_EVERY records even when no telemetry
        # sweep cadence ever calls flush().
        if len(buf) - self._synced_len >= FLUSH_EVERY:
            self.flush()

    # -- decode -----------------------------------------------------------------

    def _materialize(self, record: tuple) -> TraceEvent:
        ts = record[0]
        code = record[1]
        schema = self._schemas[code]
        fields = {}
        for key, value in zip(schema, record[2:]):
            if key == "flow" and value is not None:
                value = format(value, "08x")
            fields[key] = value
        return TraceEvent(ts, self._event_names[code], fields)

    def events(self) -> List[TraceEvent]:
        """The ring's current contents, oldest first (materialized)."""
        self.flush()
        return [self._materialize(record) for record in self._buf]

    def drain(self) -> List[TraceEvent]:
        """Return and clear the ring (counters are preserved)."""
        out = self.events()
        self._taken += len(self._buf)
        self._buf.clear()
        self._synced_len = 0
        return out

    def iter_dicts(self) -> Iterator[dict]:
        """Iterate the ring's contents as JSONL-shaped dicts (the
        analyzer's live-ring input)."""
        self.flush()
        for record in self._buf:
            yield self._materialize(record).to_dict()

    # -- sink + ring housekeeping -----------------------------------------------

    def flush(self) -> None:
        """Stream unwritten records to the sink in one encoded batch,
        then trim the ring to capacity.  Called automatically at each
        telemetry sweep boundary, on every read, and by :meth:`close`;
        harmless (and cheap) when nothing is pending.

        The order is load-bearing: drains and trims only ever happen
        here, *after* the write, so the not-yet-written tail is always
        still resident in the buffer.
        """
        buf = self._buf
        sink = self._sink
        if sink is not None:
            unwritten = (
                self._dropped + self._taken + len(buf) - self._sink_written
            )
            if unwritten:
                dumps = json.dumps
                materialize = self._materialize
                try:
                    sink.write(
                        "".join(
                            dumps(materialize(record).to_dict()) + "\n"
                            for record in buf[len(buf) - unwritten:]
                        )
                    )
                    # Push through the file object's own buffer too:
                    # the sweep-cadence flush bounds crash loss, which
                    # a Python-level buffer would silently undo.
                    sink.flush()
                except OSError as exc:
                    # Fail loudly with the sink named: a worker dying
                    # mid-run on ENOSPC/EPERM must be attributable.
                    raise TraceSinkError(
                        f"cannot write trace sink "
                        f"{self.sink_path or sink!r}: {exc}",
                        path=self.sink_path,
                    ) from exc
                self._sink_written += unwritten
        excess = len(buf) - self.capacity
        if excess > 0:
            del buf[:excess]
            self._dropped += excess
        self._synced_len = len(buf)

    def close(self) -> None:
        """Flush and close an owned JSONL sink (idempotent)."""
        sink = self._sink
        if sink is not None:
            self.flush()
            try:
                sink.flush()
                if self._owns_sink:
                    sink.close()
            except OSError as exc:
                self._sink = None
                raise TraceSinkError(
                    f"cannot close trace sink "
                    f"{self.sink_path or sink!r}: {exc}",
                    path=self.sink_path,
                ) from exc
            self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        # Safety net for abandoned tracers: flush buffered tail events
        # before the file object dies.  close() is the real contract.
        try:
            self.close()
        except Exception:
            pass
