"""System-level fidelity: the caches must agree with the slow path.

These are the make-or-break correctness properties of the whole system:
for any flow the pipeline can process, a cache hit (Megaflow or Gigaflow)
must produce exactly the same forwarding decision and header rewrites the
multi-table pipeline would.
"""

import pytest

from repro.cache import MegaflowCache
from repro.core import GigaflowCache
from repro.pipeline import Disposition, PIPELINES
from repro.workload import build_workload

N_FLOWS = 250


def final_verdict(traversal):
    """(disposition, output port, final flow) of a slow-path run."""
    return (
        traversal.disposition,
        traversal.steps[-1].actions.output_port(),
        traversal.final_flow,
    )


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_gigaflow_agrees_with_slow_path(name):
    """Every Gigaflow *hit* must reproduce the slow-path verdict exactly.

    A cached flow may still miss when a longer (higher-ρ) rule from a
    differently-partitioned traversal legitimately redirects it to a tag
    boundary it has no continuation for (§4.1.1's LTM semantics) — that
    costs a slow-path trip, never correctness.  Such dead ends are
    rare at scale (cross-products fill the gaps) but visible in tiny
    workloads, so the hit-rate floor here is deliberately loose for the
    template-heavy ANT pipeline.
    """
    workload = build_workload(
        PIPELINES[name], n_flows=N_FLOWS, locality="high", seed=13
    )
    cache = GigaflowCache(num_tables=4, table_capacity=10**6)
    for pilot in workload.pilots:
        cache.install_traversal(pilot.traversal)
    hits = 0
    for pilot in workload.pilots:
        result = cache.lookup(pilot.flow)
        if not result.hit:
            continue
        hits += 1
        disposition, port, final = final_verdict(pilot.traversal)
        if disposition == Disposition.OUTPUT:
            assert result.output_port == port
        else:
            assert result.actions.drops()
        assert result.actions.apply(pilot.flow) == final
    floor = 0.4 if name == "ANT" else 0.95
    assert hits / len(workload.pilots) >= floor


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_megaflow_agrees_with_slow_path(name):
    workload = build_workload(
        PIPELINES[name], n_flows=N_FLOWS, locality="high", seed=13
    )
    cache = MegaflowCache(capacity=10**6)
    for pilot in workload.pilots:
        cache.install_traversal(pilot.traversal)
    for pilot in workload.pilots:
        result = cache.lookup(pilot.flow)
        assert result.hit, f"{name}: cached flow missed"
        disposition, port, final = final_verdict(pilot.traversal)
        if disposition == Disposition.OUTPUT:
            assert result.output_port == port
        else:
            assert result.actions.drops()
        assert result.actions.apply(pilot.flow) == final


@pytest.mark.parametrize("name", ["PSC", "OFD"])
def test_gigaflow_cross_products_are_still_correct(name):
    """Every Gigaflow hit — including flows never sent to the slow path —
    must agree with what the pipeline would have done (the purple-path
    correctness requirement of §4.1)."""
    workload = build_workload(
        PIPELINES[name], n_flows=N_FLOWS, locality="high", seed=17
    )
    half = len(workload.pilots) // 2
    cache = GigaflowCache(num_tables=4, table_capacity=10**6)
    for pilot in workload.pilots[:half]:
        cache.install_traversal(pilot.traversal)
    # The second half was never installed; any hits must still be right.
    covered = 0
    for pilot in workload.pilots[half:]:
        result = cache.lookup(pilot.flow)
        if not result.hit:
            continue
        covered += 1
        disposition, port, final = final_verdict(pilot.traversal)
        if disposition == Disposition.OUTPUT:
            assert result.output_port == port
        else:
            assert result.actions.drops()
        assert result.actions.apply(pilot.flow) == final
    assert covered > 0, "expected some cross-product coverage"
