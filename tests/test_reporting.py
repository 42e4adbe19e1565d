"""Tests for ASCII charts."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import ascii_chart


class TestAsciiChart:
    def test_renders_points_within_frame(self):
        chart = ascii_chart(
            {"a": [(1, 1), (2, 4), (3, 9)]}, width=20, height=6, title="squares"
        )
        lines = chart.splitlines()
        assert lines[0] == "squares"
        assert lines[2].startswith("+") and lines[2].endswith("+")
        body = lines[3:-3]
        assert len(body) == 6
        assert sum(line.count("•") for line in body) == 3

    def test_multiple_series_distinct_markers(self):
        chart = ascii_chart({"a": [(1, 1)], "b": [(2, 2)]}, width=10, height=4)
        assert "•" in chart and "x" in chart
        assert "legend: • a  x b" in chart

    def test_log_axes(self):
        chart = ascii_chart(
            {"a": [(10, 100), (100, 10_000)]}, log_x=True, log_y=True, width=12, height=4
        )
        assert "[log-log]" in chart
        assert "1e+04" in chart or "1e+4" in chart or "10000" in chart or "1e+04" in chart

    def test_log_axis_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_chart({"a": [(0, 1)]}, log_x=True)

    def test_empty_series(self):
        assert "(no data)" in ascii_chart({"a": []}, title="t")

    def test_constant_series_no_crash(self):
        chart = ascii_chart({"a": [(1, 5), (2, 5)]}, width=8, height=3)
        body = [line for line in chart.splitlines() if line.startswith("|")]
        assert sum(line.count("•") for line in body) == 2

