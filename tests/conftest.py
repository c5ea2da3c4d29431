"""Shared fixtures: a tiny hand-built pipeline with known traversals.

The mini pipeline has four stages with cleanly disjoint field groups::

    T0 port_filter (in_port)  ->  T1 l2 (eth_dst)  ->  T2 l3 (ip_dst/24)
        ->  T3 acl (ip_proto, tp_dst)  -> output

so traversals partition exactly as the paper's Fig. 5c examples do.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.flow import (
    ActionList,
    FlowKey,
    Output,
    SetField,
    TernaryMatch,
    ip,
    prefix_mask,
)
from repro.pipeline import Pipeline, PipelineRule, PipelineTable


#: The differentials against a reference kept under ``tests/`` (the
#: per-bit prefix trie, the un-memoised partition DP) draw the same
#: examples in every process, so the falsifying example a CI job prints
#: is the one a local run of that test reaches.
DIFFERENTIAL = settings(derandomize=True, deadline=None, max_examples=150)
settings.register_profile("differential", DIFFERENTIAL)


def rewrite(key: FlowKey, **values: int) -> FlowKey:
    """``key`` with fields overwritten by name, in order, as set-field
    actions write them."""
    return ActionList(
        [SetField(name, value) for name, value in values.items()]
    ).apply(key)


def flow(
    in_port=1,
    eth_src=0xAA0000000001,
    eth_dst=0xBB0000000001,
    eth_type=0x0800,
    vlan_id=5,
    ip_src=None,
    ip_dst=None,
    ip_proto=6,
    tp_src=40000,
    tp_dst=443,
) -> FlowKey:
    """Build a flow key with readable defaults."""
    return FlowKey.from_fields(
        {
            "in_port": in_port,
            "eth_src": eth_src,
            "eth_dst": eth_dst,
            "eth_type": eth_type,
            "vlan_id": vlan_id,
            "ip_src": ip_src if ip_src is not None else ip("10.0.0.1"),
            "ip_dst": ip_dst if ip_dst is not None else ip("192.168.1.7"),
            "ip_proto": ip_proto,
            "tp_src": tp_src,
            "tp_dst": tp_dst,
        }
    )


def rule(values, masks=None, priority=10, actions=(), next_table=None):
    """Shorthand PipelineRule builder."""
    return PipelineRule(
        match=TernaryMatch.from_fields(values, masks),
        priority=priority,
        actions=ActionList(actions),
        next_table=next_table,
    )


def seeded_workload(n_flows=220, locality="high", seed=11):
    """The seeded PSC pipebench workload every end-to-end test drives.

    One definition instead of a copy per module (previously duplicated
    across ``test_sharded``, ``test_trace_analyze`` and
    ``test_adaptive``): same pipeline (PSC), same default seed, so
    goldens captured against it stay comparable across test files.
    """
    from repro.pipeline import PSC
    from repro.workload import build_workload

    return build_workload(
        PSC, n_flows=n_flows, locality=locality, seed=seed
    )


def seeded_trace(
    workload, mean_flow_size=24.0, duration=6.0, seed=3, **profile_kwargs
):
    """A fixed-seed trace from :func:`seeded_workload`'s output."""
    from repro.workload import TraceProfile

    return workload.trace(
        profile=TraceProfile(
            mean_flow_size=mean_flow_size,
            duration=duration,
            **profile_kwargs,
        ),
        seed=seed,
    )


@pytest.fixture
def mini_pipeline() -> Pipeline:
    """The four-stage pipeline described in the module docstring with one
    concrete rule chain installed for the default :func:`flow`."""
    t0 = PipelineTable(0, "port_filter", ("in_port",))
    t1 = PipelineTable(1, "l2", ("eth_dst",))
    t2 = PipelineTable(2, "l3", ("ip_dst",))
    t3 = PipelineTable(3, "acl", ("ip_proto", "tp_dst"))
    pipeline = Pipeline("mini", (t0, t1, t2, t3))

    pipeline.install(0, rule({"in_port": 1}, next_table=1))
    pipeline.install(1, rule({"eth_dst": 0xBB0000000001}, next_table=2))
    pipeline.install(
        2,
        rule(
            {"ip_dst": ip("192.168.1.0")},
            masks={"ip_dst": prefix_mask(24)},
            next_table=3,
        ),
    )
    pipeline.install(
        3,
        rule(
            {"ip_proto": 6, "tp_dst": 443},
            actions=[Output(9)],
        ),
    )
    return pipeline


@pytest.fixture
def default_flow() -> FlowKey:
    return flow()
