"""Gigaflow's rule lifecycle against a reference model of the window rule.

``GigaflowCache.install_rules`` places each rule of a partition in one
pass over its window, and ``_drop`` goes straight to the table a rule
records.  ``Reference`` below is the placement as first written — a
reuse scan over the window, then a list of tables with room, a
``max(key=free slots)`` for ``balanced`` and the first for
``earliest``, and on a full window the oldest least recently used head
— kept here, on plain lists and dicts, so a seeded random sequence of
installs, touches, idle sweeps, LRU evictions and removals can hold
the cache to it after every step: each table's rules in touch order,
every rule's sharing count, recency, generation and table, each tag's
change count, ``sharing_events``, ``CacheStats`` and the epoch.
"""

import random

import pytest

from repro.cache.base import CacheStats
from repro.core import TAG_DONE, GigaflowCache, LtmRule
from repro.core.validate import CacheInvariantError, validate_cache
from repro.flow import ActionList, Output, TernaryMatch
from conftest import flow

NUM_TABLES = 4
CAPACITY = 3
STEPS = 300


def rule(tag, port, next_tag, priority, now, generation):
    return LtmRule(
        tag=tag,
        match=TernaryMatch.from_fields({"tp_dst": port}),
        priority=priority,
        actions=ActionList((Output(port % 3),)),
        next_tag=next_tag,
        parent_flow=flow(tp_dst=port),
        generation=generation,
        now=now,
    )


class Resident:
    """The model's record of one resident rule."""

    def __init__(self, incoming):
        self.identity = incoming.identity
        self.tag = incoming.tag
        self.last_used = incoming.last_used
        self.generation = incoming.generation
        self.install_count = 1


class Reference:
    """Each table an identity → :class:`Resident` dict in touch order."""

    def __init__(self, placement, eviction):
        self.placement = placement
        self.eviction = eviction
        self.tables = [{} for _ in range(NUM_TABLES)]
        self.changes = [{} for _ in range(NUM_TABLES)]
        self.stats = CacheStats()
        self.sharing_events = 0
        self.epoch = 0

    def _file(self, index, record):
        self.tables[index][record.identity] = record
        changes = self.changes[index]
        changes[record.tag] = changes.get(record.tag, 0) + 1

    def _unfile(self, index, identity):
        record = self.tables[index].pop(identity)
        changes = self.changes[index]
        changes[record.tag] = changes.get(record.tag, 0) + 1
        self.stats.evictions += 1

    def touch(self, index, identity, now):
        record = self.tables[index].pop(identity)
        record.last_used = now
        self.tables[index][identity] = record

    def install(self, rules):
        k, m = NUM_TABLES, len(rules)
        installed = 0
        prev = -1
        for i, incoming in enumerate(rules):
            window = range(prev + 1, k - m + i + 1)
            shared = next(
                (j for j in window if incoming.identity in self.tables[j]),
                None,
            )
            if shared is not None:
                record = self.tables[shared][incoming.identity]
                record.install_count += 1
                self.touch(
                    shared, incoming.identity,
                    max(record.last_used, incoming.last_used),
                )
                record.generation = max(
                    record.generation, incoming.generation
                )
                self.sharing_events += 1
                prev = shared
                continue
            candidates = [
                j for j in window if len(self.tables[j]) < CAPACITY
            ]
            if not candidates:
                if self.eviction == "reject":
                    self.stats.rejected += 1
                    break
                victim_table = None
                for j in window:
                    head = next(iter(self.tables[j].values()), None)
                    if head is None:
                        continue
                    if victim_table is None or (
                        head.last_used < victim.last_used
                    ):
                        victim, victim_table = head, j
                self._unfile(victim_table, victim.identity)
                candidates = [victim_table]
            if self.placement == "balanced":
                target = max(
                    candidates, key=lambda j: CAPACITY - len(self.tables[j])
                )
            else:
                target = candidates[0]
            self._file(target, Resident(incoming))
            self.stats.insertions += 1
            installed += 1
            prev = target
        if installed:
            self.epoch += 1

    def evict_idle(self, now, max_idle):
        expired = [
            (index, identity)
            for index, table in enumerate(self.tables)
            for identity, record in table.items()
            if now - record.last_used > max_idle
        ]
        for index, identity in expired:
            self._unfile(index, identity)
        if expired:
            self.epoch += 1

    def remove(self, index, identity):
        self._unfile(index, identity)
        self.epoch += 1


def assert_agrees(cache, model):
    for index, table in enumerate(cache.tables):
        resident = list(table._by_id.values())
        records = list(model.tables[index].values())
        assert [r.identity for r in resident] == [
            r.identity for r in records
        ]
        assert set(table.by_identity) == set(model.tables[index])
        for real, record in zip(resident, records):
            assert real.table == index
            assert (real.install_count, real.last_used, real.generation) == (
                record.install_count, record.last_used, record.generation,
            )
        changes = {
            tag: dependency.changes
            for tag, dependency in table.dependencies.items()
            if dependency.changes
        }
        assert changes == model.changes[index]
    assert cache.sharing_events == model.sharing_events
    assert cache.stats == model.stats
    assert cache.mutation_epoch == model.epoch
    assert cache.entry_count() == sum(len(t) for t in model.tables)
    validate_cache(cache)


@pytest.mark.parametrize("eviction", ["lru", "reject"])
@pytest.mark.parametrize("placement", ["balanced", "earliest"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lifecycle_matches_the_reference(placement, eviction, seed):
    rng = random.Random(seed)
    cache = GigaflowCache(
        num_tables=NUM_TABLES, table_capacity=CAPACITY,
        placement=placement, eviction=eviction,
    )
    model = Reference(placement, eviction)
    now = 0.0
    generation = 0
    for _ in range(STEPS):
        now += rng.choice((0.0, 0.25, 0.5, 1.0))
        generation += rng.random() < 0.1
        op = rng.random()
        residents = [
            (index, real)
            for index, table in enumerate(cache.tables)
            for real in table._by_id.values()
        ]
        if op < 0.6 or not residents:
            m = rng.randint(1, NUM_TABLES)
            tags = [0] + rng.sample(range(1, 6), m - 1)
            rules = [
                rule(
                    tag,
                    rng.randrange(4),
                    tags[i + 1] if i + 1 < m else TAG_DONE,
                    rng.randint(1, 3),
                    now,
                    generation,
                )
                for i, tag in enumerate(tags)
            ]
            outcome = cache.install_rules(rules)
            model.install(rules)
            assert outcome.generated == m
            assert outcome.installed + outcome.reused + outcome.rejected <= m
        elif op < 0.75:
            index, real = rng.choice(residents)
            cache.tables[index].touch(real, now)
            model.touch(index, real.identity, now)
        elif op < 0.9:
            cache.evict_idle(now, max_idle=1.0)
            model.evict_idle(now, 1.0)
        else:
            index, real = rng.choice(residents)
            cache.remove(real, "revalidation")
            model.remove(index, real.identity)
        assert_agrees(cache, model)
    # The sequence reached every path it is meant to hold.
    assert model.sharing_events and model.stats.evictions
    if eviction == "reject":
        assert model.stats.rejected
    else:
        assert not model.stats.rejected


class TestDropRaisesForANonResidentRule:
    """``_drop`` goes straight to the table a rule records; the table's
    own check turns away every rule it does not hold."""

    @staticmethod
    def _cache_with(resident):
        cache = GigaflowCache(num_tables=2, table_capacity=4)
        cache.install_rules([resident])
        return cache

    def test_a_departed_rule(self):
        resident = rule(0, 1, TAG_DONE, 1, 0.0, 0)
        cache = self._cache_with(resident)
        cache.remove(resident, "revalidation")
        with pytest.raises(KeyError):
            cache._drop(resident)

    def test_an_identical_twin(self):
        resident = rule(0, 1, TAG_DONE, 1, 0.0, 0)
        cache = self._cache_with(resident)
        twin = rule(0, 1, TAG_DONE, 1, 0.0, 0)
        assert twin.identity == resident.identity
        with pytest.raises(KeyError):
            cache._drop(twin)
        # A twin filed by another cache at the same table index.
        self._cache_with(twin)
        assert twin.table == resident.table
        with pytest.raises(KeyError):
            cache._drop(twin)
        assert list(cache) == [resident]

    def test_another_caches_rule(self):
        cache = self._cache_with(rule(0, 1, TAG_DONE, 1, 0.0, 0))
        foreign = rule(0, 2, TAG_DONE, 1, 0.0, 0)
        other = GigaflowCache(num_tables=8, table_capacity=4)
        other.tables[7].insert(foreign)
        assert foreign.table == 7
        with pytest.raises(KeyError):
            cache._drop(foreign)
        never_filed = rule(0, 3, TAG_DONE, 1, 0.0, 0)
        assert never_filed.table is None
        with pytest.raises(KeyError):
            cache._drop(never_filed)
        assert other.entry_count() == cache.entry_count() == 1


def test_validate_checks_the_table_back_reference():
    resident = rule(0, 1, TAG_DONE, 1, 0.0, 0)
    cache = GigaflowCache(num_tables=2, table_capacity=4)
    cache.install_rules([resident])
    validate_cache(cache)
    resident.table = 1 - resident.table
    with pytest.raises(CacheInvariantError, match="back-reference"):
        validate_cache(cache)
