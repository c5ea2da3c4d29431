"""Table 2: maximum rule-space coverage — Gigaflow vs Megaflow."""

from repro.experiments import format_table2, table2_coverage
from conftest import run_once


def test_table2_rule_space_coverage(benchmark, scale):
    rows = run_once(
        benchmark, table2_coverage,
        ("OFD", "PSC", "OLS", "ANT", "OTL"), "high", scale,
    )
    print("\n" + format_table2(rows))

    # Paper shape, asserted on the exact *packet-satisfiable* chain count
    # (the raw tag-chain count is an upper bound): orders of magnitude on
    # the partition-friendly pipelines (459x OFD, 337x OLS, 156x PSC)...
    for name in ("OFD", "PSC", "OLS"):
        assert rows[name].satisfiable_ratio > 10, (
            f"{name}: {rows[name].satisfiable_ratio:.1f}x"
        )
    # ...moderately on ANT (40x in the paper)...
    assert rows["ANT"].satisfiable_ratio > 1.5
    # ...and barely on OTL (1.5x) — the least partitionable pipeline is
    # clearly the weakest.
    assert rows["OTL"].satisfiable_ratio < min(
        rows[n].satisfiable_ratio for n in ("OFD", "PSC", "OLS", "ANT")
    )
    # Gigaflow achieves this with no more entries than its capacity.
    for row in rows.values():
        assert row.gigaflow_entries <= scale.cache_capacity
