"""Columnar decode: a trace's numpy columns as ``(timestamp, flow)`` pairs.

:meth:`~repro.sim.engine.VSwitchSimulator.run` feeds the packet kernel
from here.  Instead of materialising one
:class:`~repro.flow.packet.Packet` per row, the timestamp and
flow-index columns are decoded :data:`CHUNK_SIZE` rows at a time — one
``ndarray.tolist()`` each, far cheaper than per-element ``float()`` /
``int()`` coercion — and each chunk's flow keys are resolved with one
object-array take over the pilot table.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from ..flow.key import FlowKey
from ..workload.pipebench import Trace

#: Rows decoded per ``tolist()`` call: large enough to amortise the
#: numpy→list conversion, small enough that the decoded lists stay
#: cache-resident.
CHUNK_SIZE = 4096


def column_pairs(trace: Trace) -> Iterator[Iterable[Tuple[float, FlowKey]]]:
    """Yield one ``zip(timestamps, flows)`` per :data:`CHUNK_SIZE` rows."""
    times, flow_indices, _sizes = trace.columns()
    flows = np.empty(len(trace.pilots), dtype=object)
    for index, pilot in enumerate(trace.pilots):
        flows[index] = pilot.flow
    for pos in range(0, len(times), CHUNK_SIZE):
        end = pos + CHUNK_SIZE
        yield zip(
            times[pos:end].tolist(), flows[flow_indices[pos:end]].tolist()
        )
