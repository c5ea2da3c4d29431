"""The memoised partition DP against an un-memoised copy of it.

``disjoint_partition`` computes its cut points once per ``(length,
boundary pattern, segments allowed)`` and slices every traversal of that
shape at them.  :func:`reference_cuts` is the DP as it ran per call before
that (commit ``06b3da6``), reading a boundary list instead of a
traversal; the public function must cut exactly where it does.
"""

import itertools

import hypothesis.strategies as st
from hypothesis import given

from repro.core import disjoint_boundaries, disjoint_partition
from repro.core.partition import DP_MEMO_SIZE, _dp_cuts
from repro.flow import ActionList, Wildcard
from repro.pipeline.traversal import Disposition, Traversal, TraversalStep
from conftest import DIFFERENTIAL, flow


def reference_cuts(n, boundaries, max_parts):
    k_max = min(max_parts, n)
    cohesive_until = [0] * n
    stop = n
    for i in range(n - 1, -1, -1):
        cohesive_until[i] = stop
        if i > 0 and boundaries[i - 1]:
            stop = i

    NEG = -1
    dp = [[NEG] * (n + 1) for _ in range(k_max + 1)]
    choice = [[None] * (n + 1) for _ in range(k_max + 1)]
    dp[0][0] = 0
    for k in range(1, k_max + 1):
        for i in range(k, n + 1):
            best, best_j = NEG, None
            for j in range(i - 1, k - 2 if k >= 2 else -1, -1):
                if dp[k - 1][j] == NEG:
                    continue
                score = (i - j) if i <= cohesive_until[j] else 0
                total = dp[k - 1][j] + score
                if total > best:
                    best, best_j = total, j
            dp[k][i] = best
            choice[k][i] = best_j

    best_k, best_score = 1, dp[1][n]
    for k in range(2, k_max + 1):
        if dp[k][n] > best_score:
            best_k, best_score = k, dp[k][n]

    cuts = []
    i, k = n, best_k
    while k > 0:
        j = choice[k][i]
        assert j is not None
        if j > 0:
            cuts.append(j)
        i, k = j, k - 1
    cuts.reverse()
    return cuts


def traversal_with(boundaries):
    """A synthetic traversal whose adjacent steps match the same field
    except across each ``True`` of ``boundaries``, where they swap to a
    disjoint one."""
    probe = flow()
    fields = ("eth_dst", "ip_dst")
    current = 0
    steps = []
    n = len(boundaries) + 1
    for i in range(n):
        steps.append(
            TraversalStep(
                i, None, 0, Wildcard.exact_fields([fields[current]]),
                probe, probe, ActionList(), i + 1 if i + 1 < n else None,
            )
        )
        if i < n - 1 and boundaries[i]:
            current ^= 1
    traversal = Traversal(tuple(steps), Disposition.CONTROLLER)
    assert disjoint_boundaries(traversal) == list(boundaries)
    return traversal


def cuts_of(partition):
    assert partition[0].start == 0
    for left, right in zip(partition, partition[1:]):
        assert left.stop == right.start
    return [sub.start for sub in partition[1:]]


class TestMemoisedCutsAreTheDpsCuts:
    def test_every_shape_up_to_ten_steps(self):
        for n in range(1, 11):
            for boundaries in itertools.product((False, True), repeat=n - 1):
                traversal = traversal_with(boundaries)
                for max_parts in range(1, 6):
                    partition = disjoint_partition(traversal, max_parts)
                    assert cuts_of(partition) == reference_cuts(
                        n, boundaries, max_parts
                    ), (boundaries, max_parts)
                    assert partition[-1].stop == n
                    assert all(sub.traversal is traversal for sub in partition)

    @DIFFERENTIAL
    @given(
        st.lists(st.booleans(), min_size=10, max_size=39),
        st.integers(1, 8),
    )
    def test_longer_traversals(self, boundaries, max_parts):
        partition = disjoint_partition(traversal_with(boundaries), max_parts)
        assert cuts_of(partition) == reference_cuts(
            len(boundaries) + 1, boundaries, max_parts
        )


class TestMemoKey:
    def test_tables_available_is_part_of_the_key(self):
        """``max_parts`` shrinks as cache tables fill; two traversals of
        one shape must not share cuts across it."""
        boundaries = (False, True, False, True, False)
        wide = disjoint_partition(traversal_with(boundaries), 3)
        narrow = disjoint_partition(traversal_with(boundaries), 2)
        again = disjoint_partition(traversal_with(boundaries), 3)
        assert cuts_of(wide) == cuts_of(again) == [2, 4]
        assert len(narrow) == 2
        assert cuts_of(narrow) == reference_cuts(6, boundaries, 2)

    def test_segments_allowed_are_capped_at_the_length(self):
        """``k_max = min(max_parts, n)`` is the key, so asking for more
        segments than steps is the same entry, not a new one."""
        traversal = traversal_with((True, True))
        disjoint_partition(traversal, 3)
        before = _dp_cuts.cache_info()
        assert cuts_of(disjoint_partition(traversal, 50)) == [1, 2]
        after = _dp_cuts.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_every_call_slices_its_own_traversal(self):
        boundaries = (True, False)
        first = traversal_with(boundaries)
        second = traversal_with(boundaries)
        assert disjoint_partition(first, 2)[0].traversal is first
        assert disjoint_partition(second, 2)[0].traversal is second

    def test_the_memo_is_bounded(self):
        assert _dp_cuts.cache_info().maxsize == DP_MEMO_SIZE
        for bits in range(DP_MEMO_SIZE + 64):
            _dp_cuts(14, bits, 2)
        assert _dp_cuts.cache_info().currsize <= DP_MEMO_SIZE
