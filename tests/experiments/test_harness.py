"""Tests for the experiment harness utilities."""

from __future__ import annotations

import pytest

from repro.experiments.harness import ExperimentResult, geometric_slowdown, render_table, timed


class TestExperimentResult:
    def test_rows_and_columns(self):
        result = ExperimentResult(experiment="EX", claim="testing")
        result.add_row(size=1, time=0.5)
        result.add_row(size=2, time=1.0)
        assert result.column("size") == [1, 2]
        assert result.column("missing") == [None, None]

    def test_table_rendering(self):
        result = ExperimentResult(experiment="EX", claim="testing")
        result.add_row(size=1, ok=True, value=None)
        result.add_note("just a note")
        table = result.to_table()
        assert "EX: testing" in table
        assert "size" in table and "ok" in table
        assert "yes" in table  # booleans rendered as yes/no
        assert "-" in table  # None rendered as dash
        assert "note: just a note" in table
        assert str(result) == table

    def test_tables_are_github_markdown(self):
        table = render_table([{"size": 1, "ok": True}, {"size": 10, "ok": False}], title="EX: t")
        assert table.splitlines() == [
            "### EX: t",
            "",
            "| size | ok  |",
            "| ---- | --- |",
            "| 1    | yes |",
            "| 10   | no  |",
        ]

    def test_empty_table(self):
        assert "(no rows)" in render_table([], title="empty")

    def test_ragged_rows(self):
        table = render_table([{"a": 1}, {"b": 2.5}])
        assert "a" in table and "b" in table
        assert "2.5" in table


class TestHelpers:
    def test_timed(self):
        value, elapsed = timed(lambda: sum(range(1000)))
        assert value == sum(range(1000))
        assert elapsed >= 0

    def test_geometric_slowdown(self):
        assert geometric_slowdown([1.0, 2.0, 4.0]) == pytest.approx(2.0)
        assert geometric_slowdown([1.0]) is None
        assert geometric_slowdown([0.0, 1.0]) is None
