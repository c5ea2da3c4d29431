"""Unit tests for actions and commit computation."""

from repro.flow import (
    ActionList,
    Controller,
    Drop,
    Output,
    SetField,
)
from conftest import flow


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

    def test_modified_fields_ordered_unique(self):
        actions = ActionList(
            [SetField("eth_dst", 1), SetField("tp_dst", 2),
             SetField("eth_dst", 3)]
        )
        assert actions.modified_fields() == ("eth_dst", "tp_dst")

    def test_equality_hash(self):
        a = ActionList([SetField("tp_dst", 80), Output(1)])
        b = ActionList([SetField("tp_dst", 80), Output(1)])
        assert a == b
        assert hash(a) == hash(b)


class TestCommit:
    def test_commit_captures_net_rewrite(self):
        before = flow()
        after = before.set_field("eth_dst", 0x42).set_field("vlan_id", 2)
        commit = ActionList.commit(before, after, ActionList([Output(5)]))
        replayed = commit.apply(before)
        assert replayed == after
        assert commit.output_port() == 5

    def test_commit_identity_when_unmodified(self):
        before = flow()
        commit = ActionList.commit(before, before, ActionList([Drop()]))
        assert commit.modified_fields() == ()
        assert commit.drops()

    def test_commit_collapses_intermediate_states(self):
        # A field set twice along the traversal commits only the final value.
        before = flow()
        mid = before.set_field("vlan_id", 7)
        after = mid.set_field("vlan_id", 9)
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
