"""Analysis tests: table rendering and figure data."""

import pytest

from repro.analysis import (
    Figure1Data,
    build_figure1,
    render_figure1_ascii,
    render_table_one_markdown,
    table_one_from_surrogate,
)
from repro.analysis.figures import SERIES_ORDER
from repro.core.scorecards import METHODS


@pytest.fixture(scope="module")
def table():
    return table_one_from_surrogate()


@pytest.fixture(scope="module")
def figure(table):
    return build_figure1(table)


class TestTableRendering:
    def test_all_rows_present(self, table):
        rows = table.rows()
        assert len(rows) == 8
        names = [r["model"] for r in rows]
        assert names[0] == "LLaMA-2-7B"

    def test_markdown_structure(self, table):
        md = render_table_one_markdown(table)
        lines = md.split("\n")
        assert lines[0].startswith("| Model |")
        assert lines[1].startswith("|---")
        assert len(lines) == 2 + 8

    def test_markdown_contains_arrows(self, table):
        md = render_table_one_markdown(table)
        assert "↑" in md and "↓" in md and "⇒" in md

    def test_empty_cells_rendered_as_dash(self, table):
        md = render_table_one_markdown(table)
        abstract_row = [l for l in md.split("\n") if "Abstract" in l][0]
        assert "–" in abstract_row

    def test_plain_render_roundtrip_scores(self, table):
        text = table.render(show_paper=False)
        assert "76.0" in text  # the headline 70B score
        assert "44.3" in text


class TestFigureData:
    def test_points_for_all_models(self, figure):
        assert len(figure.points) == 8
        for methods in figure.points.values():
            assert set(methods) == set(METHODS)

    def test_series_grouping(self, figure):
        assert set(figure.series) == set(SERIES_ORDER)
        assert len(figure.series[SERIES_ORDER[0]]) == 3  # 7B series
        assert len(figure.series[SERIES_ORDER[1]]) == 3  # 8B series
        assert len(figure.series[SERIES_ORDER[2]]) == 2  # 70B series

    def test_score_range_spans_data(self, figure):
        lo, hi = figure.score_range()
        assert lo <= 41.4 and hi >= 76.0

    def test_ascii_contains_legend_and_symbols(self, figure):
        art = render_figure1_ascii(figure)
        assert "legend" in art
        for symbol in ("o", "x", "*", "|"):
            assert symbol in art

    def test_empty_figure_handles_missing_series(self):
        fig = Figure1Data(
            points={"LLaMA-2-7B": {m: 50.0 for m in METHODS}},
            baselines={SERIES_ORDER[0]: 50.0},
            series={SERIES_ORDER[0]: ["LLaMA-2-7B"]},
        )
        art = render_figure1_ascii(fig)
        assert "LLaMA-2-7B" in art
