"""Benchmark profiles and parameter grids.

The paper's defaults (Section 5): ``m = 5`` query objects, coverage
``c = 20 %``, ``k = 10`` results; sweeps ``m ∈ {2,5,10,15,20}``,
``k ∈ {1,5,10,20,30}`` (tables add 5/10/20/30),
``c ∈ {1,5,10,20,30,50,100} %``; 20 repetitions with random query
sets.  Cardinalities are scaled for pure Python; the profile records
the scaling so EXPERIMENTS.md can state it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: paper parameter grid (Section 5).
PAPER_M_VALUES = (2, 5, 10, 15, 20)
PAPER_K_VALUES = (1, 5, 10, 20, 30)
PAPER_C_VALUES = (0.01, 0.05, 0.10, 0.20, 0.30, 0.50, 1.00)
DEFAULT_M = 5
DEFAULT_K = 10
DEFAULT_C = 0.20

ALGORITHM_NAMES = ("sba", "aba", "pba1", "pba2")
DATASET_NAMES = ("UNI", "FC", "ZIL", "CAL")


def stable_seed(*parts: Any) -> int:
    """A process-stable seed from arbitrary parts (CRC32 of their repr).

    ``hash(str)`` is randomised per process (PYTHONHASHSEED), which
    would silently give every run different query sets; CRC32 of the
    canonical repr is stable across processes, platforms and Python
    versions.
    """
    blob = "|".join(repr(part) for part in parts).encode("utf-8")
    return zlib.crc32(blob) & 0x7FFFFFFF


@dataclass(frozen=True)
class BenchProfile:
    """One benchmark scale setting."""

    name: str
    #: data set cardinality (paper: 581k-2M; scaled for pure Python).
    n: int
    #: repetitions per cell (paper: 20).
    repeats: int
    m_values: Tuple[int, ...] = PAPER_M_VALUES
    k_values: Tuple[int, ...] = PAPER_K_VALUES
    c_values: Tuple[float, ...] = PAPER_C_VALUES
    datasets: Tuple[str, ...] = DATASET_NAMES
    algorithms: Tuple[str, ...] = ALGORITHM_NAMES
    seed: int = 7


PROFILES: Dict[str, BenchProfile] = {
    "smoke": BenchProfile(
        name="smoke",
        n=250,
        repeats=1,
        m_values=(2, 5),
        k_values=(1, 5),
        c_values=(0.10, 0.20),
        datasets=("UNI", "CAL"),
    ),
    "quick": BenchProfile(name="quick", n=800, repeats=2),
    "full": BenchProfile(name="full", n=2000, repeats=5),
}
