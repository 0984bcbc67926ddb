"""ASCII log-scale charts for the figure reproductions.

The paper's Figures 4-8 are log-scale line plots; the exhibits
(:mod:`repro.bench.figures`) print the underlying series as tables,
and this module additionally renders them as terminal charts so
orderings and orders-of-magnitude gaps are visible at a glance::

    UNI — distance computations vs m (log scale)
    1e+05 |                         a        a
          |             a  s
    1e+04 |    as                s        s
          |       12    12          12
    1e+03 |    12
          +---------------------------------------
               m=2      m=5      m=10  ...

Each algorithm gets a glyph (``s`` SBA, ``a`` ABA, ``1`` PBA1,
``2`` PBA2); coinciding points print the *later* series' glyph with a
``*`` marker when they overlap exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.bench.figures import Cell

#: chart glyph per algorithm.
GLYPHS = {"sba": "s", "aba": "a", "pba1": "1", "pba2": "2", "apx": "x"}

_HEIGHT = 12
_COLUMN_WIDTH = 9


def _format_param(parameter: str, value: float) -> str:
    if parameter == "c":
        return f"{value * 100:g}%"
    return f"{parameter}={value:g}"


def render_ascii_chart(
    cells: Sequence[Cell],
    metric: str,
    dataset: str,
    title: str | None = None,
) -> str:
    """One data set's sweep of the cell column ``metric`` (e.g.
    ``distance_computations``) as a log-scale ASCII chart."""
    subset = [cell for cell in cells if cell["dataset"] == dataset]
    if not subset:
        return f"(no data for {dataset})"
    parameter = subset[0]["parameter"]
    values = sorted({cell["value"] for cell in subset})
    algorithms = sorted({cell["algorithm"] for cell in subset})

    # collect positive measurements (log scale needs > 0).
    points: Dict[tuple, float] = {}
    floor = math.inf
    ceil = -math.inf
    for cell in subset:
        measured = cell[metric]
        if measured <= 0:
            measured = 1e-6
        points[(cell["algorithm"], cell["value"])] = measured
        floor = min(floor, measured)
        ceil = max(ceil, measured)
    if not math.isfinite(floor):
        return f"(no data for {dataset})"
    log_floor = math.floor(math.log10(floor))
    log_ceil = math.ceil(math.log10(ceil))
    if log_ceil == log_floor:
        log_ceil += 1
    span = log_ceil - log_floor

    def row_of(measured: float) -> int:
        position = (math.log10(measured) - log_floor) / span
        return min(_HEIGHT - 1, max(0, int(position * (_HEIGHT - 1))))

    width = len(values) * _COLUMN_WIDTH
    grid = [[" "] * width for _ in range(_HEIGHT)]
    for column, value in enumerate(values):
        base = column * _COLUMN_WIDTH
        for slot, algorithm in enumerate(algorithms):
            measured = points.get((algorithm, value))
            if measured is None:
                continue
            row = row_of(measured)
            col = base + 2 + slot
            glyph = GLYPHS.get(algorithm, algorithm[0])
            grid[row][col] = glyph

    heading = title or (
        f"{dataset} — {metric} vs {parameter} (log scale)"
    )
    lines = [heading]
    for row in range(_HEIGHT - 1, -1, -1):
        # label rows that sit on a decade boundary.
        decade = log_floor + span * row / (_HEIGHT - 1)
        if abs(decade - round(decade)) < (span / (_HEIGHT - 1)) / 2:
            label = f"1e{int(round(decade)):+03d} |"
        else:
            label = "      |"
        lines.append(label + "".join(grid[row]))
    lines.append("      +" + "-" * width)
    axis = "       "
    for value in values:
        axis += _format_param(parameter, value).ljust(_COLUMN_WIDTH)
    lines.append(axis)
    legend = "       " + "  ".join(
        f"{GLYPHS.get(algorithm, algorithm[0])}={algorithm.upper()}"
        for algorithm in algorithms
    )
    lines.append(legend)
    return "\n".join(lines)


def render_figure_charts(
    cells: Sequence[Cell], metric: str, title: str
) -> str:
    """Charts for every data set in a sweep, stacked."""
    datasets: List[str] = []
    for cell in cells:
        if cell["dataset"] not in datasets:
            datasets.append(cell["dataset"])
    blocks = [title, "=" * len(title), ""]
    for dataset in datasets:
        blocks.append(render_ascii_chart(cells, metric, dataset))
        blocks.append("")
    return "\n".join(blocks)
