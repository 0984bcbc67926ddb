"""The paper's exhibits and their cells, read from a core-suite run.

Every figure and table of Section 5 is a slice of one grid — m, k and
c swept over the data sets and algorithms — and the ``core`` suite
(:mod:`repro.obs.perf.suites`) is that grid's only definition.  This
module says which slice each exhibit shows (:data:`EXHIBITS`: its
swept parameters, metrics and algorithms) and turns the benchmark
records of a core run document into flat **cells**, the dicts that
:mod:`repro.bench.shapes` checks and :mod:`repro.bench.experiments_md`
renders.  The CLI's ``figures`` verb, the shape checks and
EXPERIMENTS.md all go through these definitions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: one measured grid cell (see :func:`cell_from_record`).
Cell = Dict[str, Any]


@dataclass(frozen=True)
class Exhibit:
    """One paper figure or table: a slice of the core grid."""

    kind: str  # "Figure" or "Table"
    key: str
    title: str
    parameters: Tuple[str, ...]
    metrics: Tuple[str, ...]
    #: the algorithms shown; ``None`` shows every measured one.
    algorithms: Optional[Tuple[str, ...]] = None

    def wants(self, parameter: str, algorithm: str) -> bool:
        """Whether a cell of this sweep and algorithm belongs here."""
        return parameter in self.parameters and (
            self.algorithms is None or algorithm in self.algorithms
        )

    def render(self, cells: Sequence[Cell]) -> str:
        """The exhibit's measured series as Markdown tables."""
        lines: List[str] = []
        for parameter in self.parameters:
            for metric in self.metrics:
                lines.extend(
                    series_tables(cells, parameter, metric, self.algorithms)
                )
        return "\n".join(lines)


_TIME = ("cpu_seconds", "io_seconds")

EXHIBITS: Tuple[Exhibit, ...] = (
    Exhibit("Figure", "4", "CPU and I/O time vs number of query objects m",
            ("m",), _TIME),
    Exhibit("Figure", "5", "CPU and I/O time vs number of results k",
            ("k",), _TIME),
    Exhibit("Figure", "6", "CPU and I/O time vs query coverage c",
            ("c",), _TIME),
    Exhibit("Figure", "7", "Distance computations vs m and k",
            ("m", "k"), ("distance_computations",)),
    Exhibit("Figure", "8", "Distance computations vs query coverage c",
            ("c",), ("distance_computations",)),
    Exhibit("Table", "2", "CPU and I/O cost (seconds) for PBA2",
            ("m", "k", "c"), _TIME, ("pba2",)),
    Exhibit("Table", "3", "Exact score computations for PBA1/PBA2",
            ("m", "k", "c"), ("exact_score_computations",),
            ("pba1", "pba2")),
)

FIGURES: Dict[str, Exhibit] = {
    exhibit.key: exhibit for exhibit in EXHIBITS if exhibit.kind == "Figure"
}
TABLES: Dict[str, Exhibit] = {
    exhibit.key: exhibit for exhibit in EXHIBITS if exhibit.kind == "Table"
}


def cell_from_record(record: Dict[str, Any]) -> Cell:
    """One core-suite benchmark record as a figure cell.

    The grid coordinates come from the record's meta, the counts are
    its exact counters and ``io_seconds`` is the simulated I/O time of
    its page faults.  The CPU column is the median of the recorded
    wall samples: a warm, repeated timing, not one repetition's.
    """
    meta = record["meta"]
    counters = record["counters"]
    cell = {
        key: meta[key]
        for key in (
            "dataset", "algorithm", "parameter", "value", "m", "k", "c"
        )
    }
    cell.update(
        cpu_seconds=median(record["wall_seconds"]),
        io_seconds=record["metrics"]["io_seconds"],
        page_faults=counters["page_faults"],
        distance_computations=counters["distance_computations"],
        exact_score_computations=counters["exact_score_computations"],
    )
    return cell


def cells_from_run(run: Dict[str, Any]) -> List[Cell]:
    """Every benchmark record of a core run document, as cells."""
    return [cell_from_record(record) for record in run["benchmarks"]]


def newest_run(document: Dict[str, Any], profile: str) -> Dict[str, Any]:
    """The newest run of ``profile`` in a trajectory document."""
    for run in reversed(document.get("runs", [])):
        if run.get("profile") == profile:
            return run
    raise LookupError(f"no {profile!r} run recorded")


def format_value(metric: str, value: float) -> str:
    if metric.endswith("_seconds"):
        return f"{value:.3f}"
    return f"{value:.0f}"


def format_param(parameter: str, value: float) -> str:
    if parameter == "c":
        return f"{value * 100:g}%"
    return f"{value:g}"


def series_tables(
    cells: Sequence[Cell],
    parameter: str,
    metric: str,
    algorithms: Optional[Sequence[str]] = None,
) -> List[str]:
    """One Markdown table per data set: a row per algorithm, a column
    per swept value of ``parameter``; ``-`` marks an unmeasured cell."""
    lines: List[str] = []
    by_dataset: Dict[str, List[Cell]] = defaultdict(list)
    for cell in cells:
        if cell["parameter"] != parameter:
            continue
        if algorithms and cell["algorithm"] not in algorithms:
            continue
        by_dataset[cell["dataset"]].append(cell)
    for dataset in sorted(by_dataset):
        rows = by_dataset[dataset]
        values = sorted({cell["value"] for cell in rows})
        measured = {
            (cell["algorithm"], cell["value"]): cell[metric] for cell in rows
        }
        lines.append(
            f"| {dataset} / {metric} | "
            + " | ".join(format_param(parameter, v) for v in values)
            + " |"
        )
        lines.append("|" + "---|" * (len(values) + 1))
        for algo in sorted({cell["algorithm"] for cell in rows}):
            row = [f"| {algo.upper()} "]
            for value in values:
                found = measured.get((algo, value))
                row.append(
                    "| "
                    + ("-" if found is None else format_value(metric, found))
                    + " "
                )
            lines.append("".join(row) + "|")
        lines.append("")
    return lines
