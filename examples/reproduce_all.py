#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Prints the same rows/series the paper reports, at a configurable scale.
This drives exactly the same code paths as ``benchmarks/`` but as a single
readable report — useful for filling in EXPERIMENTS.md.

Run:
    python examples/reproduce_all.py [small|medium|paper]
"""

import sys

from repro.experiments import (
    MEDIUM_SCALE,
    PAPER_SCALE,
    SMALL_SCALE,
    adaptive_fallback,
    compare_baselines,
    compare_partitioners,
    compare_search_algorithms,
    core_scaling,
    dynamic_workloads,
    fig11_sharing,
    fig13_cpu_breakdown,
    format_end_to_end,
    format_table1,
    format_table2,
    hit_latency_table,
    revalidation_comparison,
    sweep_table_counts,
    sweep_tables,
    table2_coverage,
    tuple_sharing,
)

SCALES = {"small": SMALL_SCALE, "medium": MEDIUM_SCALE,
          "paper": PAPER_SCALE}


def banner(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main(scale_name: str = "small") -> None:
    scale = SCALES[scale_name]
    print(f"scale: {scale_name} ({scale.n_flows} flows, "
          f"{scale.cache_capacity} cache entries)")

    banner("Table 1 — real-world vSwitch pipelines")
    print(format_table1())

    banner("Fig. 4 — ClassBench sub-tuple reoccurrence")
    fig4 = tuple_sharing(n_rules=20_000)
    for k in (5, 4, 3, 2, 1):
        print(f"  {k} fields: {fig4.curve[k]:10.2f}")

    banner("Fig. 3 — OLS misses/coverage vs cache tables K")
    for point in sweep_tables("OLS", (1, 2, 3, 4), "high", scale):
        print(f"  K={point.k_tables}: misses={point.misses:6d} "
              f"entries={point.peak_entries:6d} "
              f"coverage={point.coverage}")

    banner("Figs. 8/9/10 — end-to-end hit rate / misses / entries")
    print(format_end_to_end(scale))

    banner("Fig. 11 — sub-traversal sharing frequency")
    for (name, locality), value in sorted(fig11_sharing(scale).items()):
        print(f"  {name} {locality}: {value:.2f}")

    banner("Fig. 13 — slow-path CPU breakdown (Gigaflow, high locality)")
    for name, row in fig13_cpu_breakdown(scale).items():
        print(f"  {name}: pipeline={row.pipeline_cycles} "
              f"partition={row.partition_cycles} "
              f"rulegen={row.rulegen_cycles} "
              f"overhead={row.overhead_fraction:.0%}")

    banner("Figs. 14/15 — table-count scaling (high locality)")
    points = sweep_table_counts(("OFD", "PSC", "OLS"), (2, 3, 4, 5),
                                ("high",), scale)
    for point in points:
        print(f"  {point.pipeline} K={point.k_tables}: "
              f"misses={point.misses:6d} entries={point.peak_entries:6d}")

    banner("Table 2 — maximum rule-space coverage")
    print(format_table2(table2_coverage(scale=scale)))

    banner("Fig. 16 — partitioning schemes on OLS")
    for name, row in compare_partitioners("OLS", "high", scale).items():
        print(f"  {name:<9} misses={row.misses:6d} "
              f"entries={row.peak_entries:6d}")

    banner("Fig. 17 — software search algorithms on PSC")
    for name, row in compare_search_algorithms("PSC", "high",
                                               scale).items():
        print(f"  {name:<14} avg={row.avg_latency_us:6.2f}us "
              f"search={row.search_us:5.2f}us")

    banner("Fig. 18 — dynamic workload arrival on PSC")
    for result in dynamic_workloads("PSC", "high", scale):
        print(f"  {result.system}: steady={result.hit_rate_before:.1%} "
              f"dip={result.hit_rate_after:.1%} drop={result.drop:+.1%}")

    banner("§6.3.6 — hit latencies and revalidation")
    for backend, us in sorted(hit_latency_table().items(),
                              key=lambda kv: kv[1]):
        print(f"  {backend:<14} {us:8.2f} us")
    comparison = revalidation_comparison("OLS", "high", scale)
    print(f"  revalidation: megaflow {comparison.megaflow_ms:.1f} ms vs "
          f"gigaflow {comparison.gigaflow_ms:.1f} ms "
          f"({comparison.speedup:.2f}x)")

    banner("Fig. 19 — per-core miss load (PSC)")
    scaling = core_scaling("PSC", "high", (1, 2, 4, 8), scale)
    for cores in (1, 2, 4, 8):
        print(f"  {cores} cores: "
              f"MF={scaling.megaflow[cores].per_core_misses:8.1f}  "
              f"GF={scaling.gigaflow[cores].per_core_misses:8.1f}")

    banner("§6.1 — all baseline configurations (PSC)")
    for row in sorted(compare_baselines("PSC", "high", scale).values(),
                      key=lambda r: r.avg_latency_us):
        print(f"  {row.config:<32} hit={row.hit_rate:.1%} "
              f"avg={row.avg_latency_us:9.2f} us")

    banner("§7 — profile-guided adaptive fallback (PSC)")
    for locality, rows in adaptive_fallback("PSC", scale).items():
        for name, row in rows.items():
            print(f"  {locality:<5} {name:<9} hit={row.hit_rate:.1%} "
                  f"misses={row.misses}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "small")
