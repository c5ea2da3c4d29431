#!/usr/bin/env python3
"""Scenario: ACL policy pushes and cache revalidation (§4.3).

An operator pushes a new deny rule into a live L2L3-ACL pipeline.  Cached
entries derived from the old policy are now stale; the revalidator replays
each entry's parent flow against the pipeline and evicts inconsistencies.
Gigaflow only replays (and only evicts) the *sub-traversals* touching the
changed table — its siblings survive and its cycle is ~2x cheaper than
Megaflow's full-traversal replays (§6.3.6).

The push itself goes through the churn workload API
(:func:`repro.workload.acl_update_schedule`): the same declarative
install/revert events the serving mode (`python -m repro serve`) applies
at exact simulated-time deadlines while traffic flows.  Here we apply
them by hand so each revalidation wave can be inspected in isolation —
the revert is a second policy change and strands a second wave of
entries, exactly like the delete half of an orchestrator storm.

Run:
    python examples/acl_policy_update.py
"""

from repro import PSC, build_workload
from repro.cache import MegaflowCache
from repro.core import GigaflowCache, IncrementalRevalidator
from repro.flow import prefix_mask
from repro.workload import acl_update_schedule

ACL_TABLE = 5  # table 5 is PSC's ACL stage


def main() -> None:
    workload = build_workload(PSC, n_flows=1500, locality="high", seed=21)
    pipeline = workload.pipeline

    megaflow = MegaflowCache(capacity=10**6)
    gigaflow = GigaflowCache(num_tables=4, table_capacity=10**6)
    for pilot in workload.pilots:
        megaflow.install_traversal(pilot.traversal)
        gigaflow.install_traversal(pilot.traversal)
    print(f"installed: megaflow={megaflow.entry_count()} entries, "
          f"gigaflow={gigaflow.entry_count()} entries "
          f"({workload.n_flows} flows)\n")

    print("=== revalidation with an unchanged pipeline ===")
    mf_report = IncrementalRevalidator(pipeline, megaflow).revalidate()
    gf_report = IncrementalRevalidator(pipeline, gigaflow).revalidate()
    print(f"megaflow: {mf_report.lookups_performed} table replays, "
          f"{mf_report.entries_evicted} evicted")
    print(f"gigaflow: {gf_report.lookups_performed} table replays, "
          f"{gf_report.entries_evicted} evicted")
    print(f"replay-cost ratio: "
          f"{mf_report.lookups_performed / gf_report.lookups_performed:.2f}x"
          f" (paper: ~2x)\n")

    print("=== operator pushes a deny-all-to-10.0.0.0/9 ACL rule ===")
    # The deny-then-revert pair as the control plane would schedule it:
    # install at t=10, withdraw at t=20.  A ServingDriver fires these at
    # their deadlines mid-stream; applied by hand the timestamps are
    # just labels and `installed` tracks the live rule handle.
    schedule = acl_update_schedule(
        ACL_TABLE, 10.0,
        value=0x0A000000, mask=prefix_mask(9), revert_at=20.0,
    )
    push, revert = schedule
    installed = {}
    push.apply(pipeline, installed)
    _table, deny = installed[push.key]
    print(f"churn event {push.kind!r} at t={push.at:g}: "
          f"installed rule into table {ACL_TABLE}")

    mf_report = IncrementalRevalidator(pipeline, megaflow).revalidate()
    gf_report = IncrementalRevalidator(pipeline, gigaflow).revalidate()
    print(f"megaflow: evicted {mf_report.entries_evicted} of "
          f"{mf_report.entries_checked} entries")
    print(f"gigaflow: evicted {gf_report.entries_evicted} of "
          f"{gf_report.entries_checked} rules "
          f"(only sub-traversals through the ACL table)")
    print(f"gigaflow entries surviving: {gigaflow.entry_count()}\n")

    # Traffic keeps flowing between the push and the revert: the denied
    # flows miss (their entries were just evicted), take the slow path,
    # and re-cache under the *new* policy — drop verdicts and all.
    refreshed = 0
    for pilot in workload.pilots:
        if deny.match.matches(pilot.flow):
            traversal = pipeline.execute(pilot.flow, record_stats=False)
            megaflow.install_traversal(traversal)
            gigaflow.install_traversal(traversal)
            refreshed += 1
    print(f"slow path re-cached {refreshed} denied flows under the "
          f"new policy")

    # The caches are consistent again: spot-check one affected flow.
    victim = next(
        p for p in workload.pilots
        if deny.match.matches(p.flow)
    )
    fresh = pipeline.execute(victim.flow, record_stats=False)
    result = gigaflow.lookup(victim.flow)
    if result.hit:
        assert result.actions.drops() == (
            fresh.steps[-1].actions.drops()
        ), "revalidated cache must agree with the pipeline"
        print("spot check: cached verdict matches the new policy (drop)\n")
    else:
        print("spot check: stale entry evicted; flow heads to the "
              "slow path for fresh rules\n")

    print("=== operator reverts the deny rule ===")
    revert.apply(pipeline, installed)
    assert not installed, "revert must release the churn handle"
    print(f"churn event {revert.kind!r} at t={revert.at:g}: "
          f"withdrew the deny rule")

    # Withdrawing a rule is itself a policy change: every entry the
    # slow path cached under the deny verdict is stale now, so a
    # second revalidation wave evicts them — the delete half of an
    # insert/delete storm.
    mf_report = IncrementalRevalidator(pipeline, megaflow).revalidate()
    gf_report = IncrementalRevalidator(pipeline, gigaflow).revalidate()
    print(f"megaflow: evicted {mf_report.entries_evicted} of "
          f"{mf_report.entries_checked} entries")
    print(f"gigaflow: evicted {gf_report.entries_evicted} of "
          f"{gf_report.entries_checked} rules")
    print(f"gigaflow entries surviving: {gigaflow.entry_count()}")


if __name__ == "__main__":
    main()
