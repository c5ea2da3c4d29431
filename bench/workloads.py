"""The six workloads of the benchmark of record, as one table.

Everything that defines a workload is a field of its row; later issues
cite a name and may not resize it.  ``build_inputs`` turns a row and a
seed into the only things the simulator ever receives: a populated
pipeline, a packet trace and (for ``churn_reval``) a churn schedule.

Seeding.  The ruleset (:data:`RULESET_SEED`) and the traffic shape
(:data:`TRAFFIC_SEED`: the flow sizes, start times and packet gaps that
``TraceProfile`` samples) are part of a workload's definition.
``--seed`` decides *which flow class plays which part* in that shape —
it shuffles the pilots before the trace is laid over them — and which
denies the churn storm samples.  Every seed is a different trace with
the same statistics.  Seeding the ruleset and the shape as well was
tried first and measured: a different ruleset is a different program
input (``mega_capacity`` ran from 8.1K to 15.1K packets/s, ``miss_path``
from 0.32 to 0.37 hit rate), and independent draws of a heavy-tailed
flow-size sample at these sizes moved hit rate by 4 % and modelled
latency by 10 % between seeds — wider than any regression bound worth
having.  Under the shuffle they move by under 3 % (bench/README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import random

import numpy as np

from repro.flow import prefix_mask
from repro.obs import Telemetry
from repro.pipeline.library import get_pipeline_spec
from repro.serve import stream_trace
from repro.sim import ChurnConfig, GigaflowSystem, MegaflowSystem, SimConfig
from repro.workload import (
    TraceProfile,
    build_workload,
    insert_delete_storm,
    priority_shuffle_schedule,
)

RULESET_SEED = 7
TRAFFIC_SEED = 8

#: ``--smoke`` divides flows and capacity (hence packets) by this.
SMOKE_DIVISOR = 20

#: Packets per ``ServingDriver.process`` call on ``serve_obs``.
SERVE_BATCH = 256


@dataclass(frozen=True)
class Workload:
    """One row of the table.

    ``driver`` is ``"run"`` (``VSwitchSimulator.run`` over the columnar
    trace) or ``"serve"`` (``ServingDriver`` fed pre-materialised
    packets in :data:`SERVE_BATCH` micro-batches).  ``sim`` holds the
    ``SimConfig`` fields that differ from the defaults.
    """

    name: str
    pipeline: str
    locality: str
    flows: int
    capacity: int
    profile: TraceProfile
    system: str
    driver: str = "run"
    sim: dict = field(default_factory=dict)
    churn: bool = False
    telemetry: bool = False
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="replay_steady",
            pipeline="PSC",
            locality="high",
            flows=1250,
            capacity=5000,
            profile=TraceProfile(
                mean_flow_size=512, duration=2, mean_packet_gap=0.25
            ),
            system="gigaflow",
            why=(
                "every flow starts in the first 2 s, then pure hits: the "
                "per-packet loop and fast-path replay do nearly all the "
                "work, slow path and TSS almost none"
            ),
        ),
        Workload(
            name="tss_capacity",
            pipeline="PSC",
            locality="low",
            flows=1500,
            capacity=375,
            profile=TraceProfile(mean_flow_size=8, duration=60),
            system="gigaflow",
            why=(
                "cache is a quarter of the working set, so eviction on "
                "every install keeps the memo cold and tuple-space "
                "probing under the LTM chain dominates"
            ),
        ),
        Workload(
            name="mega_capacity",
            pipeline="PSC",
            locality="low",
            flows=1500,
            capacity=375,
            profile=TraceProfile(mean_flow_size=8, duration=60),
            system="megaflow",
            why=(
                "same ruleset and trace as tss_capacity through one "
                "Megaflow table: a TSS gain moves both, an LTM-chain "
                "gain moves only tss_capacity"
            ),
        ),
        Workload(
            name="miss_path",
            pipeline="OLS",
            locality="high",
            flows=750,
            capacity=25000,
            profile=TraceProfile(
                mean_flow_size=8, duration=60, mean_packet_gap=4.0
            ),
            system="gigaflow",
            sim={"max_idle": 1.0, "sweep_interval": 0.5},
            why=(
                "entries expire between a flow's packets, so three packets "
                "in four take the slow path: traversal, partition, rule "
                "generation and install dominate"
            ),
        ),
        Workload(
            name="churn_reval",
            pipeline="PSC",
            locality="high",
            flows=1500,
            capacity=3000,
            profile=TraceProfile(mean_flow_size=32, duration=20),
            system="gigaflow",
            sim={"max_idle": 5.0, "sweep_interval": 0.25},
            churn=True,
            why=(
                "rule changes, budgeted revalidation and sub-second "
                "sweeps bump the cache epoch constantly, so a high-hit "
                "trace runs slowly because the memo is discarded wholesale"
            ),
        ),
        Workload(
            name="serve_obs",
            pipeline="PSC",
            locality="high",
            flows=1500,
            capacity=3000,
            profile=TraceProfile(mean_flow_size=64, duration=30),
            system="gigaflow",
            driver="serve",
            sim={"max_idle": 10.0, "sweep_interval": 1.0},
            telemetry=True,
            why=(
                "the live path: serve.py's own packet loop with Packet "
                "objects and telemetry hooks on, the only workload with "
                "a per-batch latency distribution"
            ),
        ),
    )
}

# churn_reval's schedule: a /16 deny storm on the hottest sources plus
# priority shuffles of the same table, spread over the trace's 20 s.
STORM_HOT_FLOWS = 96
STORM_COUNT = 48
STORM_START = 4.0
STORM_GAP = 0.2
STORM_HOLD = 0.4
SHUFFLE_TIMES = tuple(20.0 * (i + 1) / 9 for i in range(8))
REVAL_BUDGET = 256


@dataclass
class Inputs:
    """What one run of the simulator receives."""

    pipeline: object
    trace: object
    schedule: Optional[object] = None
    batches: Optional[List[list]] = None


def scaled(value: int, smoke: bool) -> int:
    return max(value // SMOKE_DIVISOR, 8) if smoke else value


def _churn_table(pipeline, field_name: str = "ip_src") -> int:
    """The deepest table matching on ``field_name`` (policy pushes land
    late in the pipeline)."""
    return max(
        table.table_id
        for table in pipeline.tables.values()
        if field_name in table.field_set
    )


def _churn_schedule(pipeline, trace, seed: int):
    _times, flow_indices, _sizes = trace.columns()
    per_flow = np.bincount(flow_indices, minlength=len(trace.pilots))
    hottest = np.argsort(per_flow, kind="stable")[::-1][:STORM_HOT_FLOWS]
    table = _churn_table(pipeline)
    storm = insert_delete_storm(
        [trace.pilots[i] for i in hottest],
        table,
        start=STORM_START,
        count=STORM_COUNT,
        gap=STORM_GAP,
        hold=STORM_HOLD,
        seed=seed,
        mask=prefix_mask(16),
    )
    return storm.merged_with(
        priority_shuffle_schedule(table, SHUFFLE_TIMES, seed=seed)
    )


def build_inputs(workload: Workload, seed: int, smoke: bool = False) -> Inputs:
    """Pipeline, trace and schedule for one run, from ``seed`` alone."""
    built = build_workload(
        get_pipeline_spec(workload.pipeline),
        n_flows=scaled(workload.flows, smoke),
        locality=workload.locality,
        seed=RULESET_SEED,
    )
    pilots = list(built.pilots)
    random.Random(seed).shuffle(pilots)
    trace = built.trace(
        profile=workload.profile, seed=TRAFFIC_SEED, pilots=pilots
    )
    inputs = Inputs(pipeline=built.pipeline, trace=trace)
    if workload.churn:
        inputs.schedule = _churn_schedule(built.pipeline, trace, seed)
    if workload.driver == "serve":
        packets = list(stream_trace(trace))
        inputs.batches = [
            packets[i : i + SERVE_BATCH]
            for i in range(0, len(packets), SERVE_BATCH)
        ]
    return inputs


def make_system(
    workload: Workload,
    smoke: bool = False,
    partitioner: Optional[Callable] = None,
):
    """A fresh, empty caching system (every run starts cold)."""
    capacity = scaled(workload.capacity, smoke)
    if workload.system == "megaflow":
        return MegaflowSystem(capacity=capacity)
    kwargs = {} if partitioner is None else {"partitioner": partitioner}
    return GigaflowSystem(
        num_tables=4, table_capacity=max(capacity // 4, 2), **kwargs
    )


def make_config(workload: Workload, inputs: Inputs) -> SimConfig:
    kwargs = dict(workload.sim)
    if inputs.schedule is not None:
        kwargs["churn"] = ChurnConfig(
            schedule=inputs.schedule, reval_budget=REVAL_BUDGET
        )
    if workload.telemetry:
        kwargs["telemetry"] = Telemetry()
    return SimConfig(**kwargs)
