"""Reproducing the paper's evaluation (Section 5).

The ``core`` benchmark suite (:mod:`repro.obs.perf.suites`) measures
the whole grid; :mod:`repro.bench.figures` slices it into the paper's
exhibits:

* Figure 4 — CPU + I/O time vs the number of query objects ``m``;
* Figure 5 — CPU + I/O time vs the number of results ``k``;
* Figure 6 — CPU + I/O time vs the query coverage ``c``;
* Figure 7 — distance computations vs ``m`` and ``k``;
* Figure 8 — distance computations vs ``c``;
* Table 2 — CPU and I/O cost (seconds) for PBA2 across ``m``/``k``/``c``;
* Table 3 — number of exact score computations for PBA1/PBA2.

Entry points::

    python -m repro.bench figures --figure 4        # one figure
    python -m repro.bench figures --all             # everything
    python -m repro.bench figures --all --profile full --json out.json
    python -m repro.bench run --suite core --profile quick   # record
    python -m repro.bench.experiments_md BENCH_core.json quick

``--profile quick`` (default) runs scaled-down cardinalities suitable
for a laptop; ``--profile full`` uses the largest sizes that stay
tractable in pure Python.  Absolute numbers differ from the paper's
C++/2004-hardware setup by construction; EXPERIMENTS.md records the
shape comparison.
"""

from repro.bench.config import BenchProfile, PROFILES
from repro.bench.figures import EXHIBITS, FIGURES, TABLES, Exhibit

__all__ = [
    "EXHIBITS",
    "FIGURES",
    "PROFILES",
    "TABLES",
    "BenchProfile",
    "Exhibit",
]
