"""Zero-dependency runtime telemetry: metrics, tracing, cache snapshots.

See ``docs/observability.md`` for the metric catalog and trace-event
schema.  The subsystem is opt-in: nothing in the simulator touches it
unless a :class:`Telemetry` is attached via
:attr:`~repro.sim.engine.SimConfig.telemetry`.
"""

from .analyze import (
    analyze_events,
    analyze_jsonl,
    analyze_tracer,
    load_jsonl,
    render_text,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .snapshot import AGE_BUCKETS, CacheSnapshot, age_histogram, take_snapshot
from .telemetry import Telemetry
from .trace import (
    EVENTS,
    EV_EVICT,
    EV_FASTPATH_INVALIDATE,
    EV_FASTPATH_REPLAY,
    EV_HOP,
    EV_INSTALL,
    EV_LOOKUP_HIT,
    EV_LOOKUP_MISS,
    EV_LTM_PROBE,
    EV_MODE_SWITCH,
    EV_REVALIDATE,
    EV_SNAPSHOT,
    EV_SWEEP,
    TraceEvent,
    TraceSinkError,
    Tracer,
)

__all__ = [
    "AGE_BUCKETS",
    "EVENTS",
    "EV_EVICT",
    "EV_FASTPATH_INVALIDATE",
    "EV_FASTPATH_REPLAY",
    "EV_HOP",
    "EV_INSTALL",
    "EV_LOOKUP_HIT",
    "EV_LOOKUP_MISS",
    "EV_LTM_PROBE",
    "EV_MODE_SWITCH",
    "EV_REVALIDATE",
    "EV_SNAPSHOT",
    "EV_SWEEP",
    "CacheSnapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Telemetry",
    "TraceEvent",
    "TraceSinkError",
    "Tracer",
    "age_histogram",
    "analyze_events",
    "analyze_jsonl",
    "analyze_tracer",
    "load_jsonl",
    "render_text",
    "take_snapshot",
]
