"""Edge-case tests for the simulator and trace machinery."""

import pytest

from repro.flow import Packet
from repro.pipeline import Pipeline, PipelineTable
from repro.serve import stream_trace
from repro.sim import MegaflowSystem, VSwitchSimulator
from repro.workload import build_trace
from repro.workload.pipebench import PilotFlow
from conftest import flow, rule


def _tiny_pipeline():
    table = PipelineTable(0, "only", ("in_port",))
    pipeline = Pipeline("tiny", (table,))
    from repro.flow import Output

    pipeline.install(0, rule({"in_port": 1}, actions=[Output(1)]))
    return pipeline


class TestUncacheableFlows:
    def test_controller_punts_never_install(self):
        pipeline = _tiny_pipeline()
        system = MegaflowSystem(capacity=8)
        packets = [
            Packet(flow=flow(in_port=9), timestamp=float(i))
            for i in range(5)
        ]  # in_port 9 matches nothing -> controller punt each time
        result = VSwitchSimulator(pipeline, system).run_packets(packets)
        assert result.misses == 5
        assert result.entry_count == 0
        assert result.stats.insertions == 0

    def test_cacheable_flow_installs_once(self):
        pipeline = _tiny_pipeline()
        system = MegaflowSystem(capacity=8)
        packets = [
            Packet(flow=flow(in_port=1), timestamp=float(i))
            for i in range(5)
        ]
        result = VSwitchSimulator(pipeline, system).run_packets(packets)
        assert result.misses == 1
        assert result.stats.hits == 4


class TestTrace:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            build_trace([], seed=1)

    def test_single_flow_trace(self):
        pilots = [PilotFlow(flow=flow(), template_index=0,
                            class_key=("a",))]
        trace = build_trace(pilots, seed=1)
        assert len(trace) >= 1
        assert all(p.flow_id == 0 for p in stream_trace(trace))
        assert trace.duration >= 0.0

    def test_merged_empty_offsets(self):
        pilots_a = [PilotFlow(flow=flow(tp_src=1), template_index=0,
                              class_key=("a",))]
        pilots_b = [PilotFlow(flow=flow(tp_src=2), template_index=0,
                              class_key=("b",))]
        a = build_trace(pilots_a, seed=1)
        b = build_trace(pilots_b, seed=2, offset=1000.0)
        merged = a.merged_with(b)
        ids = [p.flow_id for p in stream_trace(merged)]
        # Flow ids from b shifted past a's pilots.
        assert set(ids) == {0, 1}
        last_packets = [p for p in stream_trace(merged) if p.flow_id == 1]
        assert all(p.timestamp >= 1000.0 for p in last_packets)
