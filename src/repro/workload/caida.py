"""CAIDA-like traffic characteristics: flow sizes and inter-packet gaps.

The paper samples flow sizes and inter-packet gaps from CAIDA traces
(§6.1); the traces themselves are not redistributable, so this module
models their two well-established statistical properties directly:

* **heavy-tailed flow sizes** — most flows are mice, a few elephants carry
  most packets (bounded Pareto);
* **bursty arrivals** — exponential inter-packet gaps within a flow and
  Poisson flow arrivals across flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Tail index of the flow-size distribution (lower = heavier tail;
#: internet traffic is commonly 1.0–1.3).
PARETO_ALPHA = 1.2
#: Truncation of the bounded Pareto, in packets.
MAX_FLOW_SIZE = 2048
#: Mean payload bytes (exponential around it): CAIDA's oft-cited mean
#: packet size.
MEAN_PACKET_SIZE = 614


@dataclass(frozen=True)
class TraceProfile:
    """Statistical profile of generated traffic.

    Attributes:
        mean_flow_size: Mean packets per flow.
        duration: Seconds over which new flows start.
        mean_packet_gap: Mean in-flow inter-packet gap in seconds.
    """

    mean_flow_size: float = 8.0
    duration: float = 60.0
    mean_packet_gap: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_flow_size < 1.0:
            raise ValueError("mean_flow_size must be >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


#: Default CAIDA-like profile used by the experiments.
CAIDA_PROFILE = TraceProfile()


def sample_flow_sizes(
    rng: np.random.Generator, n_flows: int, profile: TraceProfile
) -> np.ndarray:
    """Draw per-flow packet counts from a bounded Pareto with the profile's
    mean.  The Pareto scale is solved from the target mean
    (``mean = alpha * xm / (alpha - 1)``), then sizes are truncated."""
    alpha = PARETO_ALPHA
    xm = max(profile.mean_flow_size * (alpha - 1.0) / alpha, 0.5)
    raw = xm * (1.0 + rng.pareto(alpha, size=n_flows))
    sizes = np.clip(np.round(raw), 1, MAX_FLOW_SIZE)
    return sizes.astype(np.int64)


def sample_flow_starts(
    rng: np.random.Generator,
    n_flows: int,
    profile: TraceProfile,
    offset: float = 0.0,
) -> np.ndarray:
    """Poisson flow arrivals: sorted uniform start times over the
    duration, shifted by ``offset`` (used by the Fig. 18 dynamic
    workload)."""
    starts = rng.uniform(0.0, profile.duration, size=n_flows)
    starts.sort()
    return starts + offset


def sample_packet_times(
    rng: np.random.Generator,
    start: float,
    n_packets: int,
    profile: TraceProfile,
) -> np.ndarray:
    """Packet timestamps for one flow: exponential inter-packet gaps."""
    if n_packets <= 0:
        raise ValueError("a flow needs at least one packet")
    gaps = rng.exponential(profile.mean_packet_gap, size=n_packets - 1)
    return start + np.concatenate(([0.0], np.cumsum(gaps)))


def sample_packet_sizes(rng: np.random.Generator, n_packets: int) -> np.ndarray:
    """Payload sizes: exponential around the mean, floored at 64 bytes."""
    sizes = rng.exponential(MEAN_PACKET_SIZE, size=n_packets)
    return np.maximum(sizes, 64).astype(np.int64)
