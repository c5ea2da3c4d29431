"""Strict idle-boundary contract, to the ulp, on all four cache types.

``evict_idle`` expires an entry only when ``now - last_used > max_idle``
— an entry idle for *exactly* ``max_idle`` survives the sweep, one ulp
past it does not.  Pinned here for Microflow, Megaflow, Gigaflow and
the hierarchy.

``tests/test_eviction_policies.py::TestIdleBoundaryContract`` pins the
coarser (+1e-9) boundary; this file sharpens it to ``math.nextafter``.
"""

import math

import pytest

from test_eviction_properties import Rig

MAX_IDLE = 5.0

JUST_UNDER = math.nextafter(MAX_IDLE, 0.0)
JUST_OVER = math.nextafter(MAX_IDLE, math.inf)

KINDS = ("gigaflow", "hierarchy", "megaflow", "microflow")


def build(kind):
    """A ``kind`` cache holding two entries installed at t=0 (the
    hierarchy's one install lands one per level), through the
    conformance driver's per-cache rig."""
    rig = Rig(kind, "lru", 8, fast_path=False)
    for idx in (1,) if kind == "hierarchy" else (1, 2):
        rig.install(idx, 0.0)
    return rig.cache


@pytest.mark.parametrize("kind", KINDS)
class TestDetachedBoundaryToTheUlp:
    def test_exactly_max_idle_survives_one_ulp_past_expires(self, kind):
        cache = build(kind)
        population = cache.entry_count()
        assert population == 2
        assert cache.evict_idle(JUST_UNDER, MAX_IDLE) == 0
        assert cache.evict_idle(MAX_IDLE, MAX_IDLE) == 0
        assert cache.entry_count() == population
        assert cache.evict_idle(JUST_OVER, MAX_IDLE) == population
        assert cache.entry_count() == 0
