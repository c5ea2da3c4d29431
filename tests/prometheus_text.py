"""A small Prometheus exposition-text parser for the telemetry tests.

The tests scrape what ``MetricsRegistry.to_prometheus`` and the serving
``/metrics`` endpoint write and check it sample by sample; nothing
under ``src/`` reads exposition text back.
"""

from __future__ import annotations

import math
from typing import Dict


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, float]]:
    """Parse exposition text into ``{metric: {label string: value}}``.

    Sample lines become ``{"name{a=\\"b\\"}": value}`` entries keyed
    under their family ``name`` (histogram ``_bucket``/``_sum``/
    ``_count`` series parse as their own families).
    """
    out: Dict[str, Dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        sample, _, raw = line.rpartition(" ")
        name = sample.split("{", 1)[0]
        value = math.inf if raw == "+Inf" else float(raw)
        out.setdefault(name, {})[sample] = value
    return out
