"""Unit tests for the span recorder (run: python -m pytest bench/tests)."""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


class FakeClock:
    """Deterministic stand-in for ``perf_counter_ns``."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "perf_counter_ns", fake)
    return fake


def make_recorder(**kwargs):
    kwargs.setdefault("sample_every", 1)
    return spans.Recorder(**kwargs)


def test_nested_spans_self_time_is_duration_minus_children(clock):
    recorder = make_recorder()

    def inner():
        clock.advance(30)

    inner = recorder.timed(inner, "inner")

    def outer():
        clock.advance(10)
        inner()
        clock.advance(5)
        inner()

    outer = recorder.timed(outer, "outer")
    with recorder.recording():
        outer()

    assert recorder.aggregates["outer"] == [1, 75, 15]
    assert recorder.aggregates["inner"] == [2, 60, 60]
    assert recorder.root_ns == 75
    # Self times under one root add up to the root's duration.
    assert sum(a[2] for a in recorder.aggregates.values()) == recorder.root_ns


def test_sibling_roots_get_their_own_ids_and_children_share_the_roots(clock):
    recorder = make_recorder()
    leaf = recorder.timed(lambda: clock.advance(1), "leaf")

    def packet():
        leaf()

    packet = recorder.timed(packet, "packet")
    with recorder.recording():
        packet()
        packet()

    assert recorder.roots == 2
    by_name = {}
    for span_id, parent_id, root_id, name, start, end in recorder.records:
        by_name.setdefault(name, []).append((span_id, parent_id, root_id))
        assert end >= start
    roots = by_name["packet"]
    assert [parent for _, parent, _ in roots] == [None, None]
    assert len({root for _, _, root in roots}) == 2
    for (leaf_id, leaf_parent, leaf_root), (root_id, _, root_root) in zip(
        by_name["leaf"], roots
    ):
        assert leaf_parent == root_id
        assert leaf_root == root_root == root_id
        assert leaf_id != root_id


def test_recursive_span_counts_self_time_once(clock):
    recorder = make_recorder()

    def descend(depth):
        clock.advance(10)
        if depth:
            descend(depth - 1)

    descend = recorder.timed(descend, "descend")
    with recorder.recording():
        descend(2)

    calls, total, self_time = recorder.aggregates["descend"]
    assert calls == 3
    assert self_time == 30 == recorder.root_ns
    # Total double-counts nested time by design; self time never does.
    assert total == 30 + 20 + 10


def test_name_may_depend_on_the_enclosing_span(clock):
    recorder = make_recorder()
    shared = recorder.timed(
        lambda: clock.advance(1),
        lambda parent: "shared.a" if parent == "a" else "shared.other",
    )
    a = recorder.timed(shared, "a")
    b = recorder.timed(shared, "b")
    with recorder.recording():
        a()
        b()
        shared()
    assert recorder.calls("shared.a") == 1
    assert recorder.calls("shared.other") == 2


def test_nothing_is_recorded_outside_recording(clock):
    recorder = make_recorder()
    work = recorder.timed(lambda: clock.advance(5) or "result", "work")
    assert work() == "result"
    with recorder.span("ignored"):
        work()
    assert recorder.aggregates == {}
    with recorder.recording():
        work()
    assert recorder.calls("work") == 1


def test_muted_span_swallows_its_children(clock):
    recorder = make_recorder()
    child = recorder.timed(lambda: clock.advance(7), "child")
    with recorder.recording():
        with recorder.span("oracle", mute=True):
            child()
        child()
    assert recorder.aggregates["oracle"] == [1, 7, 7]
    assert recorder.aggregates["child"] == [1, 7, 7]


def test_exception_still_closes_the_span(clock):
    recorder = make_recorder()

    def boom():
        clock.advance(3)
        raise KeyError("x")

    boom = recorder.timed(boom, "boom")
    with recorder.recording():
        with pytest.raises(KeyError):
            boom()
        assert recorder._stack == []
    assert recorder.aggregates["boom"] == [1, 3, 3]


def test_sampling_is_seeded_and_capped(clock):
    def run(seed, **kwargs):
        recorder = spans.Recorder(sample_every=4, seed=seed, **kwargs)
        root = recorder.timed(lambda: clock.advance(1), "root")
        with recorder.recording():
            for _ in range(400):
                root()
        return recorder

    first, again, other = run(1), run(1), run(2)
    picked = [record[0] for record in first.records]
    assert picked == [record[0] for record in again.records]
    assert 50 < first.sampled_roots < 150
    assert first.calls("root") == 400  # aggregates see every span
    assert [r[4] for r in first.records] != [r[4] for r in other.records]
    capped = run(1, max_records=10)
    assert len(capped.records) == 10


def test_json_writer_round_trips(tmp_path, clock):
    recorder = make_recorder()
    work = recorder.timed(lambda: clock.advance(9), "work")
    with recorder.recording():
        work()
    path = tmp_path / "trace.json"
    recorder.write(path, extra={"workload": "w"})
    loaded = json.loads(path.read_text())
    assert loaded["workload"] == "w"
    assert loaded["aggregates"]["work"] == {
        "calls": 1, "total_ns": 9, "self_ns": 9,
    }
    assert loaded["sample"]["records"] == [[1, None, 1, "work", 0, 9]]
    assert loaded["sample"]["fields"][3] == "name"


def test_missing_callable_is_reported_not_zero():
    module = types.ModuleType("bench_fake_layer")

    class Table:
        def lookup(self):
            return "found"

    module.Table = Table
    sys.modules["bench_fake_layer"] = module
    try:
        recorder = make_recorder()
        missing = spans.install(
            recorder,
            [
                ("layer.lookup", "bench_fake_layer:Table.lookup"),
                ("layer.gone", "bench_fake_layer:Table.renamed"),
                ("layer.nomod", "bench_no_such_module:f"),
                ("layer.noclass", "bench_fake_layer:Gone.lookup"),
            ],
        )
        assert len(missing) == 3
        assert any("renamed" in text for text in missing)
        assert any("bench_no_such_module" in text for text in missing)
        assert any("Gone" in text for text in missing)
        # Nothing is wrapped when anything is missing.
        assert not hasattr(Table.lookup, "__wrapped__")

        assert spans.install(
            recorder, [("layer.lookup", "bench_fake_layer:Table.lookup")]
        ) == []
        with recorder.recording():
            assert Table().lookup() == "found"
        assert recorder.calls("layer.lookup") == 1
        with pytest.raises(spans.MissingCallable):
            spans.resolve("bench_fake_layer:Table.renamed")
    finally:
        del sys.modules["bench_fake_layer"]


@pytest.mark.parametrize(
    "samples, expected",
    [
        (5, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_supported_percentile_needs_ten_samples_beyond(samples, expected):
    assert spans.supported_percentile(samples) == expected


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert spans.percentile(values, 0.0) == 1.0
    assert spans.percentile(values, 50.0) == 3.0
    assert spans.percentile(values, 100.0) == 5.0
    assert spans.percentile(values, 90.0) == pytest.approx(4.6)
    with pytest.raises(ValueError):
        spans.percentile([], 50.0)
