"""Benchmark configuration.

Every benchmark regenerates one table or figure of the paper's evaluation
and asserts its *shape* (who wins, roughly by how much, where crossovers
fall).  Scale is selected with the ``REPRO_BENCH_SCALE`` environment
variable:

* ``small`` (default) — CI-friendly, minutes for the whole suite;
* ``medium`` — 6K flows; Fig. 8's ten cells take about 70 s on a
  2-core box, and Fig. 8's shape assertion fails at this scale (the
  Gigaflow lead is recorded at ``small`` only, EXPERIMENTS.md);
* ``paper`` — the paper's 100K-flow operating point; one 30K-flow cell
  takes about 27 s of CPU for both systems on the same box, so a
  paper-scale cell takes minutes, not hours.

Figures 8–13 and 19 all read the same memoised simulation cells, so the
first of them pays the cost and the rest are instant.
"""

import os

import pytest

from repro.experiments import (
    ExperimentScale,
    MEDIUM_SCALE,
    PAPER_SCALE,
    SMALL_SCALE,
)

_SCALES = {
    "small": SMALL_SCALE,
    "medium": MEDIUM_SCALE,
    "paper": PAPER_SCALE,
}


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, "
            f"got {name!r}"
        ) from None


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        func, args=args, kwargs=kwargs, rounds=1, iterations=1,
        warmup_rounds=0,
    )
