"""Tests for the report table renderer."""

import pytest

from repro.report import render_table


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(
            ("name", "value"),
            [("alpha", 1), ("b", 22)],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "alpha" in text and "22" in text
        # All data lines share one width.
        assert len(set(len(line) for line in lines[1:])) == 1

    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            render_table(("a", "b"), [("only-one",)])

