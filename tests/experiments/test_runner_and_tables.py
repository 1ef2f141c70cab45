"""Tests for the trial statistics and table formatting."""

from repro.experiments.runner import TrialStats, aggregate_trials
from repro.experiments.tables import format_table


class TestTrialStats:
    def test_aggregate_trials(self):
        stats = aggregate_trials([2.0, 4.0, 6.0])
        assert stats.mean == 4.0
        assert stats.samples == 3
        assert stats.low < 4.0 < stats.high

    def test_str_rendering(self):
        assert "+/-" in str(TrialStats(mean=1.0, ci=0.5, samples=3))


class TestFormatTable:
    def test_empty_rows(self):
        assert "(no data)" in format_table([], title="Empty")

    def test_alignment_and_title(self):
        rows = [{"name": "wildfire", "messages": 120},
                {"name": "tree", "messages": 30}]
        text = format_table(rows, title="Costs")
        lines = text.splitlines()
        assert lines[0] == "Costs"
        assert "name" in lines[1] and "messages" in lines[1]
        assert len(lines) == 5

    def test_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_float_rendering(self):
        rows = [{"x": 1.23456, "y": 4.0}]
        text = format_table(rows)
        assert "1.235" in text
        assert " 4" in text or "4" in text.splitlines()[-1]
