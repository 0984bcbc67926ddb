"""Edge cases of the exhibit tables (``repro.bench.figures``)."""

from repro.bench.figures import TABLES, format_param, series_tables


def _cell(dataset, algorithm, parameter, value, **columns):
    params = {"m": 5, "k": 10, "c": 0.2}
    if parameter in params:
        params[parameter] = value
    cell = {
        "dataset": dataset,
        "algorithm": algorithm,
        "parameter": parameter,
        "value": value,
        "cpu_seconds": 0.0,
        "io_seconds": 0.0,
        "page_faults": 0,
        "distance_computations": 0,
        "exact_score_computations": 0,
        **params,
    }
    cell.update(columns)
    return cell


def _table(cells, parameter, metric):
    return "\n".join(series_tables(cells, parameter, metric))


class TestFormatting:
    def test_coverage_rendered_as_percent(self):
        assert format_param("c", 0.2) == "20%"
        assert format_param("c", 0.01) == "1%"

    def test_integers_rendered_bare(self):
        assert format_param("m", 5) == "5"
        assert format_param("k", 30) == "30"


class TestSeriesTable:
    def test_missing_cell_shows_dash(self):
        cells = [
            _cell("UNI", "sba", "m", 2, cpu_seconds=1.0),
            _cell("UNI", "sba", "m", 5, cpu_seconds=2.0),
            _cell("UNI", "pba2", "m", 2, cpu_seconds=0.1),
            # pba2 at m=5 missing
        ]
        text = _table(cells, "m", "cpu_seconds")
        assert "| PBA2 | 0.100 | - |" in text
        assert "| SBA | 1.000 | 2.000 |" in text

    def test_multiple_datasets_blocked(self):
        cells = [
            _cell("UNI", "sba", "m", 2),
            _cell("CAL", "sba", "m", 2),
        ]
        text = _table(cells, "m", "io_seconds")
        assert "| UNI / io_seconds | 2 |" in text
        assert "| CAL / io_seconds | 2 |" in text

    def test_count_metrics_render_as_integers(self):
        cells = [
            _cell("UNI", "pba2", "m", 2, distance_computations=1234),
        ]
        text = _table(cells, "m", "distance_computations")
        assert "| PBA2 | 1234 |" in text


class TestTables:
    def test_table2_empty_input(self):
        assert TABLES["2"].render([]) == ""

    def test_table3_handles_missing_algorithm(self):
        cells = [
            _cell("UNI", "pba1", "m", 2, exact_score_computations=7),
            _cell("UNI", "pba2", "m", 5, exact_score_computations=9),
        ]
        text = TABLES["3"].render(cells)
        assert "| PBA1 | 7 | - |" in text
        assert "| PBA2 | - | 9 |" in text
