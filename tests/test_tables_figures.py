"""Tests for table/figure text rendering."""

import pytest

from repro.designspace import exploration_space
from repro.harness import (
    Series,
    ascii_scatter,
    render_boxplot,
    render_boxplot_panel,
    render_design_point,
    render_series,
    render_table,
)
from repro.harness.tables import TableError
from repro.regression import boxplot_stats


class TestTable:
    def test_basic_rendering(self):
        text = render_table(["a", "b"], [[1, 2], [30, 40]])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert set(lines[1]) <= {"-", "+"}
        assert "30" in lines[3]

    def test_title(self):
        text = render_table(["a"], [[1]], title="Table X")
        assert text.splitlines()[0] == "Table X"

    def test_ragged_rows_rejected(self):
        with pytest.raises(TableError):
            render_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = render_table(["v"], [[0.12345], [12.345], [1234.5]])
        assert "0.123" in text
        assert "12.35" in text or "12.34" in text
        assert "1234" in text or "1235" in text

    def test_columns_aligned(self):
        text = render_table(["col", "x"], [[1, 2], [100, 3]])
        lines = text.splitlines()
        assert len(lines[0]) == len(lines[2]) == len(lines[3])

    def test_render_design_point(self):
        point = exploration_space().point_at(0)
        text = render_design_point(point)
        assert "depth=" in text and "l2_mb=" in text


class TestSeries:
    def test_render(self):
        series = Series("line", (1, 2), (0.5, 1.5))
        assert render_series(series) == "line: (1, 0.500) (2, 1.500)"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Series("bad", (1, 2), (1.0,))

    def test_precision(self):
        series = Series("p", (1,), (0.123456,))
        assert render_series(series) == "p: (1, 0.123)"


class TestBoxplotRendering:
    def test_render_boxplot_contains_quartiles(self):
        stats = boxplot_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        text = render_boxplot("label", stats)
        assert "label" in text
        assert "3.00" in text  # median
        assert "n=5" in text

    def test_percent_mode(self):
        stats = boxplot_stats([0.05, 0.10, 0.15])
        text = render_boxplot("x", stats, percent=True)
        assert "10.00%" in text

    def test_panel_stacks_labels(self):
        stats = boxplot_stats([1.0, 2.0])
        text = render_boxplot_panel("title", {"a": stats, "b": stats})
        lines = text.splitlines()
        assert lines[0] == "title"
        assert len(lines) == 3


class TestScatter:
    def test_dimensions(self):
        text = ascii_scatter([0, 1, 2], [0, 1, 4], width=20, height=5)
        lines = text.splitlines()
        assert len(lines) == 6  # header + 5 rows
        assert all(len(line) == 20 for line in lines[1:])

    def test_points_plotted(self):
        text = ascii_scatter([0, 1], [0, 1], width=10, height=4)
        assert text.count("*") == 2

    def test_degenerate_single_point(self):
        text = ascii_scatter([1.0], [2.0])
        assert "*" in text

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_scatter([1, 2], [1])

    def test_empty(self):
        with pytest.raises(ValueError):
            ascii_scatter([], [])
