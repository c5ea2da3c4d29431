"""NuevoMatch-style learned-index classifier (RQ-RMI).

NuevoMatch [Rashelbach et al., SIGCOMM '20 / NSDI '22] replaces hash-based
Tuple Space Search with Range-Query Recursive Model Indexes: rules are
partitioned into *independent sets* (iSets) whose ranges on one field do
not overlap, a small learned model predicts each rule's position with a
bounded error, and rules that fit no iSet fall back to a remainder TSS.

The paper uses NuevoMatch purely as an alternative software search
algorithm for the Megaflow/Gigaflow caches (§6.3.4, Fig. 17): it lowers
per-lookup cost but "without affecting the cache miss volume" (§8).  This
implementation is a faithful miniature: real iSet partitioning (interval
scheduling), a real learned model (piecewise-linear fit with a computed
worst-case error bound), bounded local search, and full rule validation —
so the classifier is *provably equivalent* to TSS on every lookup, which
the test suite checks.

It lives with the experiments because Fig. 17 is its only user: no cache
or pipeline table can be built on it.
"""

from __future__ import annotations

import bisect
from typing import Generic, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..classify.trie import mask_to_prefix_len
from ..classify.tss import TupleSpaceClassifier
from ..flow.fields import DEFAULT_SCHEMA
from ..flow.key import FlowKey

RuleT = TypeVar("RuleT")

#: Default field used to build range queries, as in the NuevoMatch paper
#: (destination address carries the most structure in ClassBench rules).
DEFAULT_INDEX_FIELD = "ip_dst"


def _rule_range(rule, field_index: int, width: int) -> Optional[Tuple[int, int]]:
    """The [lo, hi] interval a rule covers on the index field, or ``None``
    when the rule's mask there is not prefix-shaped (no contiguous range)."""
    mask = rule.match.mask_tuple[field_index]
    plen = mask_to_prefix_len(mask, width)
    if plen is None:
        return None
    value = rule.match.canonical_key[field_index]
    span = (1 << (width - plen)) - 1
    return value, value + span


class _PiecewiseLinearModel:
    """A tiny RQ-RMI: a two-level piecewise-linear regressor from key value
    to sorted-array position, with a measured worst-case error bound."""

    def __init__(self, keys: np.ndarray, submodels: int = 8):
        if keys.size == 0:
            raise ValueError("cannot fit a model to zero keys")
        self._keys = keys
        self._n = keys.size
        positions = np.arange(self._n, dtype=np.float64)
        # Level 0: a single linear stage routing to level-1 submodels.
        self._submodels = max(1, min(submodels, self._n))
        lo, hi = float(keys[0]), float(keys[-1])
        self._lo = lo
        self._span = max(hi - lo, 1.0)
        # Level 1: per-bucket linear fits.
        self._coeffs: List[Tuple[float, float]] = []
        bounds = np.linspace(0, self._n, self._submodels + 1).astype(int)
        self._bucket_of = np.minimum(
            ((keys - lo) / self._span * self._submodels).astype(int),
            self._submodels - 1,
        )
        for b in range(self._submodels):
            mask = self._bucket_of == b
            xs = keys[mask].astype(np.float64)
            ys = positions[mask]
            if xs.size == 0:
                start = bounds[b]
                self._coeffs.append((0.0, float(start)))
            elif xs.size == 1 or xs[0] == xs[-1]:
                self._coeffs.append((0.0, float(ys.mean())))
            else:
                slope, intercept = np.polyfit(xs, ys, 1)
                self._coeffs.append((float(slope), float(intercept)))
        # Worst-case error bound, measured over the training keys —
        # this is what makes the bounded secondary search exact.
        errors = np.abs(self._predict_array(keys) - positions)
        self.error_bound = int(np.ceil(errors.max())) if errors.size else 0

    def _predict_array(self, keys: np.ndarray) -> np.ndarray:
        buckets = np.minimum(
            ((keys - self._lo) / self._span * self._submodels)
            .astype(int)
            .clip(0),
            self._submodels - 1,
        )
        out = np.empty(keys.size, dtype=np.float64)
        for b in range(self._submodels):
            mask = buckets == b
            slope, intercept = self._coeffs[b]
            out[mask] = slope * keys[mask] + intercept
        return out

    def predict(self, key: int) -> int:
        bucket = int((key - self._lo) / self._span * self._submodels)
        bucket = min(max(bucket, 0), self._submodels - 1)
        slope, intercept = self._coeffs[bucket]
        pos = int(round(slope * key + intercept))
        return min(max(pos, 0), self._n - 1)


class _ISet(Generic[RuleT]):
    """One independent set: non-overlapping ranges on one field,
    searchable in O(1) via the learned model plus a bounded local scan."""

    def __init__(
        self,
        entries: Sequence[Tuple[int, int, RuleT]],
        field_index: int,
    ):
        self.field_index = field_index
        ordered = sorted(entries, key=lambda e: e[0])
        self.lows = [e[0] for e in ordered]
        self.highs = [e[1] for e in ordered]
        self.rules: List[RuleT] = [e[2] for e in ordered]
        self.model = _PiecewiseLinearModel(
            np.asarray(self.lows, dtype=np.float64)
        )

    def __len__(self) -> int:
        return len(self.rules)

    def lookup(self, key: int, flow: FlowKey) -> Optional[RuleT]:
        """Predict, scan within the error bound, validate."""
        pos = self.model.predict(key)
        err = self.model.error_bound
        lo = max(0, pos - err - 1)
        hi = min(len(self.rules) - 1, pos + err + 1)
        # The candidate is the rightmost interval with low <= key inside
        # the window; fall back to bisect when the window was misestimated
        # (cannot happen for trained keys, but keys between rules may land
        # one slot off the window edge).
        idx = bisect.bisect_right(self.lows, key, lo, hi + 1) - 1
        if idx < lo:
            idx = bisect.bisect_right(self.lows, key) - 1
        if idx < 0:
            return None
        if self.lows[idx] <= key <= self.highs[idx]:
            rule = self.rules[idx]
            if rule.match.matches(flow):
                return rule
        return None


#: Fields tried (in order) when carving iSets; NuevoMatch similarly builds
#: independent sets over whichever dimension separates rules best.
DEFAULT_CANDIDATE_FIELDS = ("ip_dst", "ip_src", "tp_dst", "tp_src")


class NuevoMatchClassifier(Generic[RuleT]):
    """An RQ-RMI classifier: learned iSets plus a remainder TSS.

    Build once from a rule list with :meth:`fit`; afterwards the classifier
    is read-only (as in the papers, remainder-inserts would go to the TSS —
    :meth:`insert` does exactly that).  Each fitting round greedily carves
    the largest independent (non-overlapping) range set over whichever
    candidate field separates the remaining rules best.
    """

    def __init__(
        self,
        index_field: str = DEFAULT_INDEX_FIELD,
        max_isets: int = 4,
        min_iset_size: int = 8,
        candidate_fields: Sequence[str] = DEFAULT_CANDIDATE_FIELDS,
    ):
        self.index_field = index_field
        self._field_index = DEFAULT_SCHEMA.index_of(index_field)
        self._width = DEFAULT_SCHEMA[self._field_index].width
        self.max_isets = max_isets
        self.min_iset_size = min_iset_size
        self._candidates: Tuple[int, ...] = tuple(
            dict.fromkeys(
                [self._field_index]
                + [
                    DEFAULT_SCHEMA.index_of(name)
                    for name in candidate_fields
                    if name in DEFAULT_SCHEMA
                ]
            )
        )
        self._isets: List[_ISet[RuleT]] = []
        self._remainder: TupleSpaceClassifier[RuleT] = TupleSpaceClassifier()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def iset_count(self) -> int:
        return len(self._isets)

    @property
    def remainder_group_count(self) -> int:
        return self._remainder.group_count

    # -- construction -----------------------------------------------------------

    def fit(self, rules: Sequence[RuleT]) -> None:
        """Partition ``rules`` into iSets + remainder and train the models."""
        self._isets = []
        self._remainder.clear()
        self._size = len(rules)

        remaining: List[RuleT] = list(rules)
        for _ in range(self.max_isets):
            if len(remaining) < self.min_iset_size:
                break
            best_field = None
            best_selected: List[Tuple[int, int, RuleT]] = []
            best_rest: List[RuleT] = []
            for field_index in self._candidates:
                width = DEFAULT_SCHEMA[field_index].width
                full_span = (1 << width) - 1
                ranged: List[Tuple[int, int, RuleT]] = []
                unranged: List[RuleT] = []
                for rule in remaining:
                    interval = _rule_range(rule, field_index, width)
                    # A full-domain range overlaps everything — useless
                    # for an independent set.
                    if (
                        interval is None
                        or interval[1] - interval[0] >= full_span
                    ):
                        unranged.append(rule)
                    else:
                        ranged.append((interval[0], interval[1], rule))
                selected, rest = self._interval_schedule(ranged)
                if len(selected) > len(best_selected):
                    best_field = field_index
                    best_selected = selected
                    best_rest = [r for _, _, r in rest] + unranged
            if best_field is None or len(best_selected) < self.min_iset_size:
                break
            self._isets.append(_ISet(best_selected, best_field))
            remaining = best_rest
        for rule in remaining:
            self._remainder.insert(rule)

    @staticmethod
    def _interval_schedule(
        entries: List[Tuple[int, int, RuleT]]
    ) -> Tuple[List[Tuple[int, int, RuleT]], List[Tuple[int, int, RuleT]]]:
        """Greedy maximum non-overlapping interval selection (by right end)."""
        ordered = sorted(entries, key=lambda e: (e[1], e[0]))
        selected: List[Tuple[int, int, RuleT]] = []
        rest: List[Tuple[int, int, RuleT]] = []
        next_free = -1
        for entry in ordered:
            lo, hi, _ = entry
            if lo > next_free:
                selected.append(entry)
                next_free = hi
            else:
                rest.append(entry)
        return selected, rest

    def insert(self, rule: RuleT) -> None:
        """Incremental inserts land in the remainder TSS (as in NuevoMatch)."""
        self._remainder.insert(rule)
        self._size += 1

    # -- lookup --------------------------------------------------------------------

    def lookup(self, flow: FlowKey) -> Tuple[Optional[RuleT], int]:
        """Highest-priority match across all iSets and the remainder
        (climbed, as a cache's search is), and the probes it took: one
        per iSet plus the remainder's ``groups_probed``."""
        best: Optional[RuleT] = None
        probes = 0
        for iset in self._isets:
            probes += 1
            rule = iset.lookup(flow.values[iset.field_index], flow)
            if rule is not None and (best is None or rule.priority > best.priority):
                best = rule
        candidate, groups = self._remainder.climb(flow.packed)
        probes += groups
        if candidate is not None and (
            best is None or candidate.priority > best.priority
        ):
            best = candidate
        return best, probes
