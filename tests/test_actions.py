"""Unit tests for actions and commit computation."""

import hypothesis.strategies as st
from hypothesis import given

from repro.flow import (
    DEFAULT_SCHEMA,
    ActionList,
    Controller,
    Drop,
    Output,
    SetField,
    Wildcard,
)
from repro.pipeline.traversal import TraversalStep, union_wildcards
from conftest import DIFFERENTIAL, flow, rewrite


class TestActionList:
    def test_apply_set_fields(self):
        actions = ActionList([SetField("tp_dst", 80), SetField("vlan_id", 9)])
        out = actions.apply(flow())
        assert out.get("tp_dst") == 80
        assert out.get("vlan_id") == 9

    def test_apply_terminal_actions_do_not_touch_key(self):
        actions = ActionList([Output(3)])
        assert actions.apply(flow()) == flow()

    def test_is_terminal(self):
        assert ActionList([Output(1)]).is_terminal()
        assert ActionList([Drop()]).is_terminal()
        assert ActionList([Controller()]).is_terminal()
        assert not ActionList([SetField("tp_dst", 1)]).is_terminal()
        assert not ActionList().is_terminal()

    def test_output_port(self):
        assert ActionList([SetField("tp_dst", 1), Output(7)]).output_port() == 7
        assert ActionList([Drop()]).output_port() is None

    def test_drops(self):
        assert ActionList([Drop()]).drops()
        assert not ActionList([Output(1)]).drops()

    def test_rewrite_mask_covers_each_set_field_once(self):
        actions = ActionList(
            [SetField("eth_dst", 1), SetField("tp_dst", 2),
             SetField("eth_dst", 3), Output(4)]
        )
        masks = DEFAULT_SCHEMA.field_masks
        index = DEFAULT_SCHEMA.index_of
        assert actions.rewrite_mask() == (
            masks[index("eth_dst")] | masks[index("tp_dst")]
        )
        assert ActionList([Output(4), Drop()]).rewrite_mask() == 0
        assert ActionList().rewrite_mask() == 0

    def test_equality_hash(self):
        a = ActionList([SetField("tp_dst", 80), Output(1)])
        b = ActionList([SetField("tp_dst", 80), Output(1)])
        assert a == b
        assert hash(a) == hash(b)


class TestCommit:
    def test_commit_captures_net_rewrite(self):
        before = flow()
        after = rewrite(before, eth_dst=0x42, vlan_id=2)
        commit = ActionList.commit(before, after, ActionList([Output(5)]))
        replayed = commit.apply(before)
        assert replayed == after
        assert commit.output_port() == 5

    def test_commit_identity_when_unmodified(self):
        before = flow()
        commit = ActionList.commit(before, before, ActionList([Drop()]))
        assert not any(isinstance(a, SetField) for a in commit)
        assert commit.rewrite_mask() == 0
        assert commit.drops()

    def test_commit_collapses_intermediate_states(self):
        # A field set twice along the traversal commits only the final value.
        before = flow()
        mid = rewrite(before, vlan_id=7)
        after = rewrite(mid, vlan_id=9)
        commit = ActionList.commit(before, after, ActionList([Output(1)]))
        sets = [a for a in commit if isinstance(a, SetField)]
        assert sets == [SetField("vlan_id", 9)]

    def test_commit_keeps_only_terminal_tail_actions(self):
        before = flow()
        tail = ActionList([SetField("tp_dst", 1), Output(2)])
        commit = ActionList.commit(before, before, tail)
        # The tail's set-field is not replayed (it is part of the diff),
        # only its terminal action survives.
        assert [type(a).__name__ for a in commit] == ["Output"]


# -- packed derivation against a field-by-field reference ----------------------

#: Fields the strategies draw from: few enough that a list often sets
#: one field twice.
_FIELDS = ("eth_dst", "vlan_id", "ip_dst", "tp_dst")


def reference_modified_fields(actions):
    """Names of the fields the set-fields overwrite, first write first."""
    seen = []
    for action in actions:
        if isinstance(action, SetField) and action.field not in seen:
            seen.append(action.field)
    return tuple(seen)


def reference_diff_fields(before, after):
    """Names of the fields on which two keys differ, in schema order."""
    return tuple(
        field.name
        for field, a, b in zip(DEFAULT_SCHEMA, before.values, after.values)
        if a != b
    )


def reference_union_wildcards(steps):
    """Per-field union of the step wildcards, each field's mask dropped
    once an earlier step has rewritten it."""
    masks = [0] * len(DEFAULT_SCHEMA)
    rewritten = set()
    for step in steps:
        for index, mask in enumerate(step.wildcard.masks):
            if DEFAULT_SCHEMA[index].name not in rewritten:
                masks[index] |= mask
        rewritten.update(reference_modified_fields(step.actions))
    return Wildcard(masks)


def reference_commit(before, after, tail):
    sets = [
        SetField(name, after.get(name))
        for name in reference_diff_fields(before, after)
    ]
    terminals = [
        a for a in tail.actions if isinstance(a, (Output, Drop, Controller))
    ]
    return ActionList(sets + terminals)


@st.composite
def action_lists(draw, start):
    """A list of set-fields over :data:`_FIELDS` — some writing the value
    the flow already holds at that point — and an optional terminal tail."""
    current = start
    actions = []
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(_FIELDS))
        if draw(st.booleans()):
            value = current.get(name)  # a write of the current value
        else:
            width = DEFAULT_SCHEMA.field(name).width
            value = draw(st.integers(0, (1 << width) - 1))
        actions.append(SetField(name, value))
        current = rewrite(current, **{name: value})
    actions += draw(st.sampled_from(
        [[], [Output(3)], [Drop()], [Controller()], [Output(1), Output(2)]]
    ))
    return ActionList(actions)


@st.composite
def walks(draw):
    """A walk of one to five steps from a flow: its steps' random
    wildcards and action lists, and each step's flows."""
    start = flow(tp_dst=draw(st.integers(0, 0xFFFF)))
    full = (1 << sum(f.width for f in DEFAULT_SCHEMA)) - 1
    steps = []
    current = start
    for table in range(draw(st.integers(1, 5))):
        actions = draw(action_lists(current))
        after = actions.apply(current)
        steps.append(TraversalStep(
            table, None, 0, Wildcard.from_packed(draw(st.integers(0, full))),
            current, after, actions, None,
        ))
        current = after
    return steps


def _assert_resolved_as_fresh(actions):
    """A list's resolution equals that of a fresh list of its actions."""
    fresh = ActionList(actions.actions)
    assert actions.rewrite_mask() == fresh.rewrite_mask()
    assert actions.terminals() == fresh.terminals()
    assert actions.output_port() == fresh.output_port()


class TestPackedAgainstFieldByField:
    def test_reference_diff_fields(self):
        a = flow()
        b = rewrite(a, eth_dst=0x1, tp_dst=80)
        assert reference_diff_fields(a, b) == ("eth_dst", "tp_dst")
        assert reference_diff_fields(a, a) == ()

    @DIFFERENTIAL
    @given(walks())
    def test_union_wildcards(self, steps):
        assert union_wildcards(steps) == reference_union_wildcards(steps)
        for step in steps:
            masks = DEFAULT_SCHEMA.field_masks
            assert step.actions.rewrite_mask() == sum(
                masks[DEFAULT_SCHEMA.index_of(name)]
                for name in reference_modified_fields(step.actions)
            )
            _assert_resolved_as_fresh(step.actions)

    @DIFFERENTIAL
    @given(walks())
    def test_commit(self, steps):
        before = steps[0].flow_before
        after = steps[-1].flow_after
        for tail in (steps[-1].actions, ActionList()):
            commit = ActionList.commit(before, after, tail)
            assert commit.actions == reference_commit(
                before, after, tail
            ).actions
            assert commit.apply(before) == after
            _assert_resolved_as_fresh(commit)

    def test_empty_lists(self):
        empty = ActionList()
        assert empty.rewrite_mask() == 0
        assert empty.terminals() == ()
        assert empty.output_port() is None
        commit = ActionList.commit(flow(), flow(), empty)
        assert commit.actions == ()
        _assert_resolved_as_fresh(commit)

    def test_equal_set_fields_are_shared(self):
        before = flow()
        after = rewrite(before, vlan_id=9)
        first = ActionList.commit(before, after, ActionList())
        second = ActionList.commit(before, after, ActionList())
        assert first.actions[0] is second.actions[0]
