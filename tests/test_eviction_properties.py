"""Property-based tests for the eviction policies and the entry
lifecycle every cache shares.

Fuzzes random operation sequences against every registered policy,
checking the structural invariants the
:class:`~repro.cache.eviction.EvictionPolicy` contract promises:

* the policy tracks exactly the resident key set (``len``/``in``);
* ``victim()`` always names a resident key (``None`` iff empty);
* plain LRU never evicts the entry that was just hit;

and drives every cache type (hierarchy included) through one
install / lookup / sweep / clear / policy-swap loop
(:func:`drive_lifecycle`) with a recording telemetry hub and a
recording ``ewma`` predictor attached, checking after every op that
the departure ledger reconciles and that fast-path replay is
indistinguishable from the full lookup.
"""

import copy
from collections import Counter

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.cache import CacheHierarchy, MegaflowCache, MicroflowCache
from repro.cache.eviction import POLICY_NAMES, make_policy
from repro.core import GigaflowCache
from repro.core.timeouts import EwmaTimeoutPredictor, TimeoutConfig
from repro.flow import ActionList, Output
from repro.sim.fastpath import FastPathIndex
from conftest import flow
from test_eviction_policies import ltm_rule, mega_entry

KEYS = st.integers(0, 11)
POLICY_OPS = st.lists(
    st.tuples(st.sampled_from(("insert", "hit", "share", "evict")), KEYS),
    max_size=150,
)
CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("install", "install", "lookup", "lookup", "sweep", "clear",
             "swap")
        ),
        st.integers(0, 9),
    ),
    max_size=80,
)
ANY_POLICY = st.sampled_from(POLICY_NAMES)


def drive(policy, ops):
    """Replay an op sequence, checking bookkeeping invariants after
    every step; returns the resident key set."""
    resident = set()
    now = 0.0
    for op, key in ops:
        now += 1.0
        if op == "insert":
            if key in resident:
                # Caches map an install of a resident key to a refresh.
                policy.on_hit(key, now)
            else:
                policy.on_insert(key, now)
                resident.add(key)
        elif op == "hit":
            if key in resident:
                policy.on_hit(key, now)
        elif op == "share":
            if key in resident:
                policy.on_share(key)
        else:  # evict
            victim = policy.victim()
            assert (victim is None) == (not resident)
            if victim is not None:
                assert victim in resident
                policy.on_remove(victim)
                resident.discard(victim)
        assert len(policy) == len(resident)
        assert all(key in policy for key in resident)
    return resident


class TestPolicyBookkeeping:
    @settings(max_examples=60, deadline=None)
    @given(name=ANY_POLICY, ops=POLICY_OPS)
    def test_residency_and_victims_consistent(self, name, ops):
        drive(make_policy(name), ops)

    @settings(max_examples=40, deadline=None)
    @given(name=ANY_POLICY, ops=POLICY_OPS, key=KEYS)
    def test_remove_of_any_resident_key(self, name, ops, key):
        policy = make_policy(name)
        resident = drive(policy, ops)
        if key not in resident:
            policy.on_insert(key, 1e6)
            resident.add(key)
        policy.on_remove(key)
        resident.discard(key)
        assert key not in policy
        assert len(policy) == len(resident)

    @settings(max_examples=40, deadline=None)
    @given(name=ANY_POLICY, ops=POLICY_OPS)
    def test_clear_empties(self, name, ops):
        policy = make_policy(name)
        drive(policy, ops)
        policy.clear()
        assert len(policy) == 0
        assert policy.victim() is None
        # A cleared policy accepts fresh inserts again.
        policy.on_insert("fresh", 0.0)
        assert policy.victim() == "fresh"


class TestLruExactness:
    @settings(max_examples=60, deadline=None)
    @given(ops=POLICY_OPS)
    def test_lru_victim_is_least_recently_touched(self, ops):
        """Plain LRU tracked against a reference recency list."""
        policy = make_policy("lru")
        order = []  # LRU at the front, MRU at the back
        now = 0.0
        for op, key in ops:
            now += 1.0
            if op == "insert":
                if key in order:
                    order.remove(key)
                order.append(key)
                if key in policy:
                    policy.on_hit(key, now)
                else:
                    policy.on_insert(key, now)
            elif op in ("hit", "share"):
                if key in order:
                    if op == "hit":
                        order.remove(key)
                        order.append(key)
                        policy.on_hit(key, now)
                    else:
                        policy.on_share(key)  # no-op for LRU
            else:
                victim = policy.victim()
                assert victim == (order[0] if order else None)
                if victim is not None:
                    policy.on_remove(victim)
                    order.remove(victim)
            assert policy.victim() == (order[0] if order else None)

    @settings(max_examples=60, deadline=None)
    @given(ops=POLICY_OPS, key=KEYS)
    def test_lru_never_evicts_just_hit_entry(self, ops, key):
        policy = make_policy("lru")
        resident = drive(policy, ops)
        if key in resident:
            policy.on_hit(key, 1e6)
        else:
            policy.on_insert(key, 1e6)
        if len(policy) >= 2:
            assert policy.victim() != key
        else:
            assert policy.victim() == key


MAX_IDLE = 2.0
ACTIONS = ActionList([Output(1)])


class RecordingHub:
    """Telemetry double: keeps what the departure chokepoint reports."""

    def __init__(self):
        self.evicts = []  # (cache name, reason, count)
        self.victims = []  # (cache name, policy, age)

    def on_evict(self, name, reason, count=1):
        self.evicts.append((name, reason, count))

    def on_victim(self, name, policy, age):
        self.victims.append((name, policy, age))

    def tss_observer(self, name):
        return None

    def ltm_observer(self, tables):
        return None, None


class RecordingPredictor(EwmaTimeoutPredictor):
    """``ewma`` that also keeps which keys it was told left, and how."""

    def __init__(self):
        super().__init__(
            TimeoutConfig(predictor="ewma", min_idle=0.5, max_idle=MAX_IDLE)
        )
        self.told = []  # ("expire" | "forget", key)

    def on_expire(self, key, idle, now, timeout):
        self.told.append(("expire", key))
        super().on_expire(key, idle, now, timeout)

    def forget(self, key):
        self.told.append(("forget", key))
        super().forget(key)


def predictor_key(entry):
    """What names an entry to the timeout predictor: the flow's values
    (Microflow), the match (Megaflow), ``identity()`` (an LTM rule)."""
    if hasattr(entry, "identity"):
        return entry.identity()
    return entry.key if hasattr(entry, "key") else entry.match


class Rig:
    """One cache of ``kind`` plus how to drive it by small flow index:
    the per-cache part of the conformance driver."""

    def __init__(self, kind, eviction, capacity, fast_path, predicted):
        self.kind = kind
        if kind == "microflow":
            self.cache = MicroflowCache(capacity, eviction)
        elif kind == "megaflow":
            self.cache = MegaflowCache(capacity, eviction=eviction)
        elif kind == "gigaflow":
            self.cache = GigaflowCache(
                num_tables=2, table_capacity=capacity, eviction=eviction
            )
        else:
            self.cache = CacheHierarchy(capacity, capacity, eviction=eviction)
        #: The caches entries actually live in (and leave from).
        self.leaves = (
            (self.cache.microflow, self.cache.megaflow)
            if kind == "hierarchy" else (self.cache,)
        )
        self.hub = RecordingHub()
        self.cache.attach_telemetry(self.hub)
        self.predictor = RecordingPredictor() if predicted else None
        self.cache.set_timeout_predictor(self.predictor)
        self.lookup = (
            FastPathIndex(self.cache).lookup if fast_path
            else self.cache.lookup
        )

    def packet(self, idx):
        if self.kind == "microflow":
            return flow(tp_src=1000 + idx)
        return flow(tp_dst=2000 + idx)

    def install(self, idx, now):
        cache = self.cache
        if self.kind == "microflow":
            cache.install(self.packet(idx), ACTIONS, now=now)
        elif self.kind == "megaflow":
            cache.install(mega_entry(2000 + idx, now), now=now)
        elif self.kind == "gigaflow":
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
        elif op == "clear":
            self.cache.clear()
        else:
            self.cache.set_eviction_policy(
                POLICY_NAMES[idx % len(POLICY_NAMES)]
            )

    @staticmethod
    def policies(leaf):
        tables = getattr(leaf, "tables", None)
        return [t.policy for t in tables] if tables else [leaf.policy]

    def resident_keys(self):
        return Counter(
            predictor_key(entry) for leaf in self.leaves for entry in leaf
        )

    def state(self):
        """Everything a replayed hit must leave exactly as the full
        lookup would: counters, use times, and each policy's complete
        victim order (ids are minted per install, so named by key)."""
        out = [self.cache.stats]
        for leaf in self.leaves:
            name_of = {
                getattr(entry, "rule_id", predictor_key(entry)):
                    predictor_key(entry)
                for entry in leaf
            }
            orders = []
            for policy in self.policies(leaf):
                drained = copy.deepcopy(policy)
                order = []
                while (victim := drained.victim()) is not None:
                    order.append(name_of[victim])
                    drained.on_remove(victim)
                orders.append(order)
            out.append((
                leaf.stats,
                [(predictor_key(e), e.last_used) for e in leaf],
                orders,
            ))
        return out


def check_ledger(rig, op, before_keys, before_marks):
    """The reconciliation every op must leave behind."""
    hub, pred = rig.hub, rig.predictor
    departed = before_keys - rig.resident_keys()
    evict_mark, told_mark, epochs, evictions = before_marks
    for leaf, epoch0, evictions0 in zip(rig.leaves, epochs, evictions):
        stats = leaf.stats
        assert leaf.entry_count() <= leaf.capacity_total()
        assert (
            stats.insertions - stats.evictions
            == leaf.entry_count()
            == sum(len(policy) for policy in rig.policies(leaf))
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
    # A policy's victim is reported with its age, once, under its name.
    assert len(hub.victims) == sum(
        count for _, reason, count in hub.evicts if reason in POLICY_NAMES
    )
    assert all(age >= 0 for _, _, age in hub.victims)
    if pred is not None:
        # Every departed key is forgotten exactly once; an idle expiry
        # is filed with on_expire first, exactly once, and nothing else
        # is.
        told = pred.told[told_mark:]
        assert Counter(k for how, k in told if how == "forget") == departed
        expired = [k for how, k in told if how == "expire"]
        assert Counter(expired) == (departed if op == "sweep" else Counter())
        for key in expired:
            assert told.index(("expire", key)) < told.index(("forget", key))


def drive_lifecycle(kind, eviction, capacity, predicted, ops):
    """The one conformance loop: a fast-path rig (checked against the
    ledger after every op) in lock-step with a full-lookup twin."""
    rig = Rig(kind, eviction, capacity, fast_path=True, predicted=predicted)
    twin = Rig(kind, eviction, capacity, fast_path=False, predicted=predicted)
    now = 0.0
    for op, idx in ops:
        now += 0.5
        keys = rig.resident_keys()
        marks = (
            len(rig.hub.evicts),
            len(rig.predictor.told) if predicted else 0,
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


def lifecycle_case(kind, evictions=POLICY_NAMES):
    @settings(max_examples=40, deadline=None)
    @given(
        eviction=st.sampled_from(evictions),
        capacity=st.integers(1, 6),
        predicted=st.booleans(),
        ops=CACHE_OPS,
    )
    @example(
        eviction="lru", capacity=4, predicted=False,
        ops=TWO_EXPIRE_IN_ONE_SWEEP,
    )
    @example(
        eviction="lru", capacity=4, predicted=True,
        ops=TWO_EXPIRE_IN_ONE_SWEEP,
    )
    def case(self, eviction, capacity, predicted, ops):
        rig = drive_lifecycle(kind, eviction, capacity, predicted, ops)
        swapped = any(op == "swap" for op, _ in ops)
        if eviction == "reject" and not swapped:
            assert not rig.hub.victims  # refused installs, never evicted

    return case


class TestCacheStatsReconcile:
    """One driver, every cache: the ledger (``insertions - evictions ==
    entry_count == Σ len(policy)``, telemetry and predictor told of
    every departure exactly once, one idle record per sweep) and memo
    replay ≡ full lookup must survive arbitrary interleavings under
    every policy."""

    test_microflow = lifecycle_case("microflow")
    test_megaflow = lifecycle_case("megaflow", POLICY_NAMES + ("reject",))
    test_gigaflow = lifecycle_case("gigaflow", POLICY_NAMES + ("reject",))
    test_hierarchy = lifecycle_case("hierarchy")

    @settings(max_examples=30, deadline=None)
    @given(
        first=ANY_POLICY,
        second=st.integers(0, len(POLICY_NAMES) - 1),
        capacity=st.integers(1, 6),
        ops=CACHE_OPS,
        more=CACHE_OPS,
    )
    def test_microflow_policy_swap_midstream(
        self, first, second, capacity, ops, more
    ):
        """Swapping policies re-seeds residency exactly; the invariants
        keep holding for the continuation."""
        rig = drive_lifecycle(
            "microflow", first, capacity, True,
            ops + [("swap", second)] + more,
        )
        if not any(op == "swap" for op, _ in more):
            assert rig.cache.eviction == POLICY_NAMES[second]
