"""Unit tests for text table rendering."""

from __future__ import annotations

import pytest

from repro.analysis import format_table


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["name", "n"], [["wiki", 100], ["dblp", 20000]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "wiki" in lines[2]
        assert "20000" in lines[3]

    def test_title(self):
        out = format_table(["a"], [[1]], title="Table I")
        assert out.splitlines()[0] == "Table I"

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out
