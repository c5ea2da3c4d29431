"""Property-based tests for LRU order and the entry lifecycle every
cache shares.

Each cache's id → entry index *is* its recency list
(``MicroflowCache._entries``, ``MegaflowCache._by_id``,
``LtmTable._by_id``): ``touch`` moves an entry to the end, the
capacity victim is the first value.  Random operation sequences are
replayed against every one of them next to a reference recency list,
checking that

* the index holds exactly the resident entries, in least- to
  most-recently-touched order (so the victim is the least recently
  touched entry, a just-touched entry never is, and entries touched at
  one timestamp keep their touch order);
* a full cache's install evicts exactly the reference list's head;

and every cache type (hierarchy included) is driven through one
install / lookup / sweep / clear loop (:func:`drive_lifecycle`) with a
recording telemetry hub attached, checking after every op that the departure ledger reconciles and that
fast-path replay is indistinguishable from the full lookup.
"""

from collections import Counter

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.cache import CacheHierarchy, MegaflowCache, MicroflowCache
from repro.core import GigaflowCache
from repro.flow import ActionList, Output
from repro.sim.fastpath import FastPathIndex
from conftest import flow
from test_eviction_policies import ltm_rule, mega_entry

KEYS = st.integers(0, 11)
INDEX_OPS = st.lists(
    st.tuples(st.sampled_from(("insert", "hit", "evict", "remove")), KEYS),
    max_size=150,
)
CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("install", "install", "lookup", "lookup", "sweep", "clear")
        ),
        st.integers(0, 9),
    ),
    max_size=80,
)
ANY_INDEX = st.sampled_from(("microflow", "megaflow", "ltm"))
ACTIONS = ActionList([Output(1)])
MAX_IDLE = 2.0


class RecordingHub:
    """Telemetry double: keeps what the departure chokepoint reports."""

    def __init__(self):
        self.evicts = []  # (cache name, reason, count)
        self.victims = []  # (cache name, age)

    def on_evict(self, name, reason, count=1):
        self.evicts.append((name, reason, count))

    def on_victim(self, name, age):
        self.victims.append((name, age))

    def tss_observer(self, name):
        return None

    def ltm_observer(self, tables):
        return None, None


def entry_key(entry):
    """What names an entry across installs: the flow's packed value
    (Microflow), the match (Megaflow), ``identity`` (an LTM rule)."""
    if hasattr(entry, "identity"):
        return entry.identity
    return entry.key if hasattr(entry, "key") else entry.match


class Rig:
    """One cache of ``kind`` plus how to drive it by small flow index:
    the per-cache part of the conformance driver."""

    def __init__(self, kind, eviction, capacity, fast_path):
        self.kind = kind
        if kind == "microflow":
            self.cache = MicroflowCache(capacity)
        elif kind == "megaflow":
            self.cache = MegaflowCache(capacity)
        elif kind in ("gigaflow", "ltm"):  # "ltm": one table, one index
            self.cache = GigaflowCache(
                num_tables=2 if kind == "gigaflow" else 1,
                table_capacity=capacity, eviction=eviction,
            )
        else:
            self.cache = CacheHierarchy(capacity, capacity)
        #: The caches entries actually live in (and leave from).
        self.leaves = (
            (self.cache.microflow, self.cache.megaflow)
            if kind == "hierarchy" else (self.cache,)
        )
        self.hub = RecordingHub()
        self.cache.attach_telemetry(self.hub)
        self.lookup = (
            FastPathIndex(self.cache).lookup if fast_path
            else self.cache.lookup
        )

    def packet(self, idx):
        if self.kind == "microflow":
            return flow(tp_src=1000 + idx)
        return flow(tp_dst=2000 + idx)

    def key(self, idx):
        """The :func:`entry_key` of the entry :meth:`install` files."""
        if self.kind == "microflow":
            return self.packet(idx).packed
        if self.kind in ("gigaflow", "ltm"):
            return ltm_rule(2000 + idx).identity
        return mega_entry(2000 + idx).match

    def install(self, idx, now):
        cache = self.cache
        if self.kind == "microflow":
            cache.install(self.packet(idx), ACTIONS, now=now)
        elif self.kind == "megaflow":
            cache.install(mega_entry(2000 + idx, now), now=now)
        elif self.kind in ("gigaflow", "ltm"):
            cache.install_rules([ltm_rule(2000 + idx, now=now)])
        else:  # what CacheHierarchy.install_traversal does, sans pipeline
            entry = mega_entry(2000 + idx, now)
            cache.megaflow.install(entry, now=now)
            cache.microflow.install(self.packet(idx), entry.actions, now=now)

    def apply(self, op, idx, now):
        if op == "install":
            self.install(idx, now)
        elif op == "lookup":
            self.lookup(self.packet(idx), now=now)
        elif op == "sweep":
            self.cache.evict_idle(now=now, max_idle=MAX_IDLE)
        else:
            self.cache.clear()

    @staticmethod
    def indexes(leaf):
        """The id → entry indexes (one per LTM table) kept in use order."""
        if isinstance(leaf, MicroflowCache):
            return [leaf._entries]
        tables = getattr(leaf, "tables", None)
        return [t._by_id for t in tables] if tables else [leaf._by_id]

    def resident_keys(self):
        return Counter(
            entry_key(entry) for leaf in self.leaves for entry in leaf
        )

    def order(self):
        """Flow indexes (of :data:`KEYS`) as a single-index cache's
        index holds them, victim first."""
        (index,) = self.indexes(self.cache)
        idx_of = {self.key(idx): idx for idx in range(12)}
        return [idx_of[entry_key(e)] for e in index.values()]

    def remove(self, idx):
        (entry,) = [
            e for e in self.cache if entry_key(e) == self.key(idx)
        ]
        self.cache._depart((entry,), "test")

    def state(self):
        """Everything a replayed hit must leave exactly as the full
        lookup would: counters, use times, and each index's complete
        victim order (ids are minted per install, so named by key)."""
        out = [self.cache.stats]
        for leaf in self.leaves:
            out.append((
                leaf.stats,
                [(entry_key(e), e.last_used) for e in leaf],
                [
                    [entry_key(e) for e in index.values()]
                    for index in self.indexes(leaf)
                ],
            ))
        return out


def drive(rig, capacity, ops, tick=1.0):
    """Replay an op sequence next to a reference recency list (victim
    first), checking ``rig``'s one index against it after every step;
    returns the list."""
    cache = rig.cache
    (index,) = rig.indexes(cache)
    order = []
    now = 0.0
    for op, key in ops:
        now += tick
        if op == "insert":
            if key in order:
                order.remove(key)  # an install of a resident key refreshes
            elif len(order) == capacity:
                order.pop(0)  # the cache must pick the same victim
            order.append(key)
            rig.install(key, now)
        elif op == "hit":
            hit = cache.lookup(rig.packet(key), now=now).hit
            assert hit == (key in order)
            if hit:
                order.remove(key)
                order.append(key)
        elif op == "evict":
            if order:
                rig.remove(order.pop(0))
        elif key in order:  # remove, from anywhere in the order
            order.remove(key)
            rig.remove(key)
        assert rig.order() == order
        assert len(index) == cache.entry_count() == len(order)
        assert rig.resident_keys() == Counter(map(rig.key, order))
    return order


def indexed(kind, capacity):
    """A bare rig of one of the three index owners."""
    return Rig(kind, "lru", capacity, fast_path=False)


class TestPolicyBookkeeping:
    """The index never drifts from the resident set."""

    @settings(max_examples=60, deadline=None)
    @given(kind=ANY_INDEX, ops=INDEX_OPS)
    def test_residency_and_victims_consistent(self, kind, ops):
        drive(indexed(kind, 64), 64, ops)

    @settings(max_examples=40, deadline=None)
    @given(kind=ANY_INDEX, ops=INDEX_OPS, key=KEYS)
    def test_remove_of_any_resident_key(self, kind, ops, key):
        rig = indexed(kind, 64)
        order = drive(rig, 64, ops)
        if key not in order:
            rig.install(key, 1e6)
            order.append(key)
        rig.remove(key)
        order.remove(key)
        assert rig.order() == order
        assert len(order) == rig.cache.entry_count()

    @settings(max_examples=40, deadline=None)
    @given(kind=ANY_INDEX, ops=INDEX_OPS)
    def test_clear_empties(self, kind, ops):
        rig = indexed(kind, 64)
        drive(rig, 64, ops)
        rig.cache.clear()
        assert rig.order() == [] and rig.cache.entry_count() == 0
        # A cleared cache accepts fresh installs again.
        rig.install(0, 0.0)
        assert rig.order() == [0]


class TestLruExactness:
    @settings(max_examples=90, deadline=None)
    @given(
        kind=ANY_INDEX, capacity=st.integers(1, 6), ops=INDEX_OPS,
        tick=st.sampled_from((1.0, 0.0)),
    )
    def test_lru_victim_is_least_recently_touched(
        self, kind, capacity, ops, tick
    ):
        """Under pressure every install evicts the reference list's
        head — and with the clock stopped (``tick`` 0) ``last_used``
        ties everywhere, so touch order alone decides."""
        drive(indexed(kind, capacity), capacity, ops, tick)

    @settings(max_examples=60, deadline=None)
    @given(kind=ANY_INDEX, ops=INDEX_OPS, key=KEYS)
    def test_lru_never_evicts_just_hit_entry(self, kind, ops, key):
        rig = indexed(kind, 64)
        order = drive(rig, 64, ops)
        if key in order:
            assert rig.cache.lookup(rig.packet(key), now=1e6).hit
        else:
            rig.install(key, 1e6)
        assert (rig.order()[0] == key) == (rig.cache.entry_count() == 1)


def check_ledger(rig, op, before_keys, before_marks):
    """The reconciliation every op must leave behind."""
    hub = rig.hub
    departed = before_keys - rig.resident_keys()
    evict_mark, epochs, evictions = before_marks
    for leaf, epoch0, evictions0 in zip(rig.leaves, epochs, evictions):
        stats = leaf.stats
        assert leaf.entry_count() <= leaf.capacity_total()
        assert (
            stats.insertions - stats.evictions
            == leaf.entry_count()
            == sum(len(index) for index in rig.indexes(leaf))
        )
        name = leaf.telemetry_name
        assert stats.evictions == sum(
            count for cache, _, count in hub.evicts if cache == name
        )
        if op == "sweep":
            # One record and one epoch bump per sweep that removed
            # anything, however many entries went.
            gone = stats.evictions - evictions0
            fresh = [r for r in hub.evicts[evict_mark:] if r[0] == name]
            assert fresh == ([(name, "idle", gone)] if gone else [])
            assert leaf.mutation_epoch - epoch0 == (1 if gone else 0)
    assert sum(departed.values()) == sum(
        leaf.stats.evictions - e0 for leaf, e0 in zip(rig.leaves, evictions)
    )
    # A capacity victim is reported with its age, once.
    assert len(hub.victims) == sum(
        count for _, reason, count in hub.evicts if reason == "lru"
    )
    assert all(age >= 0 for _, age in hub.victims)


def drive_lifecycle(kind, eviction, capacity, ops):
    """The one conformance loop: a fast-path rig (checked against the
    ledger after every op) in lock-step with a full-lookup twin."""
    rig = Rig(kind, eviction, capacity, fast_path=True)
    twin = Rig(kind, eviction, capacity, fast_path=False)
    now = 0.0
    for op, idx in ops:
        now += 0.5
        keys = rig.resident_keys()
        marks = (
            len(rig.hub.evicts),
            [leaf.mutation_epoch for leaf in rig.leaves],
            [leaf.stats.evictions for leaf in rig.leaves],
        )
        rig.apply(op, idx, now)
        twin.apply(op, idx, now)
        check_ledger(rig, op, keys, marks)
        assert rig.state() == twin.state()
    return rig


#: Two entries go idle together: the sweep is one record, one bump.
TWO_EXPIRE_IN_ONE_SWEEP = (
    [("install", 0), ("install", 1)] + [("lookup", 9)] * 4 + [("sweep", 0)]
)


def lifecycle_case(kind, evictions=("lru", "reject")):
    @settings(max_examples=40, deadline=None)
    @given(
        eviction=st.sampled_from(evictions),
        capacity=st.integers(1, 6),
        ops=CACHE_OPS,
    )
    @example(eviction="lru", capacity=4, ops=TWO_EXPIRE_IN_ONE_SWEEP)
    def case(self, eviction, capacity, ops):
        rig = drive_lifecycle(kind, eviction, capacity, ops)
        if eviction == "reject":
            # Refused installs, never evicted.
            assert not rig.hub.victims

    return case


class TestCacheStatsReconcile:
    """One driver, every cache: the ledger (``insertions - evictions ==
    entry_count == Σ len(index)``, telemetry told of every departure,
    one idle record per sweep) and memo
    replay ≡ full lookup must survive arbitrary interleavings, evicting
    or refusing when full."""

    test_microflow = lifecycle_case("microflow", ("lru",))
    test_megaflow = lifecycle_case("megaflow", ("lru",))
    test_gigaflow = lifecycle_case("gigaflow")
    test_hierarchy = lifecycle_case("hierarchy", ("lru",))
