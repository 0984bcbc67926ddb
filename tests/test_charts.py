"""ASCII chart rendering."""

import pytest

from repro.bench.charts import (
    GLYPHS,
    render_ascii_chart,
    render_figure_charts,
)


def _cell(dataset, algorithm, value, dists):
    return {
        "dataset": dataset,
        "algorithm": algorithm,
        "parameter": "m",
        "value": value,
        "m": int(value),
        "k": 10,
        "c": 0.2,
        "cpu_seconds": dists / 1000.0,
        "distance_computations": dists,
    }


@pytest.fixture
def cells():
    out = []
    for value in (2, 5, 10):
        out.append(_cell("UNI", "sba", value, 10_000 * value))
        out.append(_cell("UNI", "pba2", value, 500 * value))
        out.append(_cell("CAL", "sba", value, 20_000 * value))
        out.append(_cell("CAL", "pba2", value, 800 * value))
    return out


class TestRenderAsciiChart:
    def test_contains_axis_and_legend(self, cells):
        text = render_ascii_chart(cells, "distance_computations", "UNI")
        assert "m=2" in text and "m=10" in text
        assert "2=PBA2" in text and "s=SBA" in text
        assert "log scale" in text

    def test_orders_of_magnitude_separate_vertically(self, cells):
        text = render_ascii_chart(cells, "distance_computations", "UNI")
        lines = text.splitlines()
        # SBA's glyph must appear on a higher row than PBA2's.
        sba_rows = [i for i, ln in enumerate(lines) if "s" in ln[7:]]
        pba_rows = [i for i, ln in enumerate(lines) if "2" in ln[7:]]
        assert min(sba_rows) < min(pba_rows)  # earlier line = higher

    def test_missing_dataset_handled(self, cells):
        assert "no data" in render_ascii_chart(cells, "distance_computations", "ZIL")

    def test_zero_values_clamped(self):
        cells = [_cell("UNI", "pba2", 2, 0)]
        text = render_ascii_chart(cells, "distance_computations", "UNI")
        assert "UNI" in text  # renders without math errors

    def test_custom_title(self, cells):
        text = render_ascii_chart(
            cells, "distance_computations", "UNI", title="my title"
        )
        assert text.startswith("my title")


class TestRenderFigureCharts:
    def test_stacks_all_datasets(self, cells):
        text = render_figure_charts(cells, "distance_computations", "Figure X")
        assert text.count("log scale") == 2
        assert "Figure X" in text

    def test_every_algorithm_has_glyph(self):
        assert set(GLYPHS) >= {"sba", "aba", "pba1", "pba2"}
