"""Sub-traversal partitioning (§4.2.2, Fig. 7, Fig. 16).

A traversal of ``N`` table lookups must be split into at most ``K``
contiguous sub-traversals, one per available Gigaflow table.  The paper's
*disjoint partitioning* (DP) scores a candidate sub-traversal by its length
when its tables match overlapping fields (it stays inside one field group)
and by 0 when it crosses a *disjointness boundary* (adjacent tables with no
field in common); the partition maximising the total score is selected via
a dynamic program.

Two baselines from Fig. 16 are also provided: RND (random cut points) and
the ideal 1-1 mapping (every pipeline table gets its own cache table).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Tuple

import numpy as np

from ..pipeline.traversal import SubTraversal, Traversal

#: A partition is an ordered tuple of contiguous sub-traversals covering
#: the whole traversal.
Partition = Tuple[SubTraversal, ...]

#: Signature shared by all partitioners.
Partitioner = Callable[[Traversal, int], Partition]

#: Distinct ``(length, boundaries, tables available)`` inputs whose cut
#: points are remembered (one run of a 30-table pipeline shows about 35).
DP_MEMO_SIZE = 4096


def _score(boundary_bits: int, start: int, stop: int) -> int:
    """Fig. 7's score of the segment ``[start:stop]``."""
    internal = stop - start - 1
    if internal > 0 and boundary_bits >> start & ((1 << internal) - 1):
        return 0
    return stop - start


def disjoint_boundaries(traversal: Traversal) -> List[bool]:
    """``boundary[i]`` is True when steps ``i`` and ``i+1`` match disjoint
    fields — a legal (score-preserving) cut point."""
    bits = traversal.boundary_bits
    return [bool(bits >> i & 1) for i in range(len(traversal) - 1)]


def segment_score(traversal: Traversal, start: int, stop: int) -> int:
    """Fig. 7's score: the segment's length when no internal disjointness
    boundary is crossed, else 0.  Single-step segments trivially score 1."""
    return _score(traversal.boundary_bits, start, stop)


def partition_score(traversal: Traversal, partition: Partition) -> int:
    """Total Fig. 7 score of a partition."""
    bits = traversal.boundary_bits
    return sum(_score(bits, sub.start, sub.stop) for sub in partition)


def disjoint_partition(traversal: Traversal, max_parts: int) -> Partition:
    """The paper's DP partitioner.

    The DP reads only the traversal's length, where its disjointness
    boundaries fall and how many segments it may use: the cut points are
    computed once per such shape and each traversal is sliced at them.
    """
    if max_parts < 1:
        raise ValueError(f"max_parts must be >= 1, got {max_parts}")
    n = len(traversal)
    return traversal.partitions_of(
        _dp_cuts(n, traversal.boundary_bits, min(max_parts, n))
    )


@lru_cache(maxsize=DP_MEMO_SIZE)
def _dp_cuts(n: int, boundary_bits: int, k_max: int) -> Tuple[int, ...]:
    """Interior cut indices of the best partition of ``n`` steps into at
    most ``k_max`` segments.

    ``dp[k][i]``: best score for the first ``i`` steps using exactly ``k``
    segments.  Ties prefer fewer segments, then longer trailing segments
    (fewer cache entries).
    """
    NEG = -1
    dp = [[NEG] * (n + 1) for _ in range(k_max + 1)]
    choice = [[0] * (n + 1) for _ in range(k_max + 1)]
    dp[0][0] = 0
    for k in range(1, k_max + 1):
        for i in range(k, n + 1):
            best, best_j = NEG, 0
            # Segment [j:i]; iterate j descending so longer segments win ties.
            for j in range(i - 1, k - 2, -1):
                if dp[k - 1][j] == NEG:
                    continue
                total = dp[k - 1][j] + _score(boundary_bits, j, i)
                if total > best:
                    best, best_j = total, j
            dp[k][i] = best
            choice[k][i] = best_j

    # Pick the smallest k achieving the maximum score.
    best_k, best_score = 1, dp[1][n]
    for k in range(2, k_max + 1):
        if dp[k][n] > best_score:
            best_k, best_score = k, dp[k][n]

    cuts: List[int] = []
    i, k = n, best_k
    while k > 0:
        j = choice[k][i]
        if j > 0:
            cuts.append(j)
        i, k = j, k - 1
    cuts.reverse()
    return tuple(cuts)


def megaflow_partition(traversal: Traversal, max_parts: int = 1) -> Partition:
    """The K=1 degenerate case: one segment spanning the whole traversal
    (exactly what a Megaflow entry caches)."""
    return (traversal.sub(0, len(traversal)),)


def one_to_one_partition(traversal: Traversal, max_parts: int = 0) -> Partition:
    """The ideal 1-1 mapping of §6.3.3: every pipeline table in the
    traversal gets its own cache table.  ``max_parts`` is ignored — the
    scheme assumes the SmartNIC has as many tables as the pipeline."""
    return tuple(traversal.sub(i, i + 1) for i in range(len(traversal)))


class RandomPartitioner:
    """The RND baseline of Fig. 16: uniformly random cut points.

    Stateful (carries its RNG) so repeated calls explore different cuts
    while remaining reproducible from the seed.
    """

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def __call__(self, traversal: Traversal, max_parts: int) -> Partition:
        n = len(traversal)
        k = int(self._rng.integers(1, min(max_parts, n) + 1))
        if k == 1:
            return megaflow_partition(traversal)
        cuts = sorted(
            int(c) + 1
            for c in self._rng.choice(n - 1, size=k - 1, replace=False)
        )
        return traversal.partitions_of(cuts)
