"""Pruning heuristics for the pruning-based algorithms (Section 4.4.2).

The paper proposes three families of heuristics around a global pruning
value ``G`` — "the exact dominance score of the current exact top-k
dominating object minus 1"; any object whose domination score provably
falls at or below ``G`` can never enter the top-k answer:

* **Discard heuristics** ``DH1``-``DH3`` eliminate objects before they
  become candidates (objects dominated by the current k-th best, by a
  pruned object, or objects not yet seen once ``k`` exact scores
  exist);
* **Early pruning heuristics** ``EPH1``-``EPH5`` eliminate a candidate
  *before* its exact score is computed, using rank-position upper
  bounds;
* the **internal pruning heuristic** ``IPH`` aborts an exact-score
  reverse scan midway once the achievable score can no longer exceed
  ``G`` (implemented inside :mod:`repro.core.scoring`).

Two bounds are implemented in a provably safe form that deviates
slightly from the paper's formulas (which contain apparent typos):

* EPH4 — we use ``dom(o) <= n - |AUX| + sum_j (pos_j - Lpos_o(qj) + 1)
  - m``: each object of ``AUX`` dominated by ``o`` occupies at least
  one retrieval-log slot at rank ``>= Lpos_o(qj)``, and ``o`` itself
  occupies ``m`` of those slots;
* EPH5 — the paper's bound is extended by ``+1`` to account for ``o``
  possibly dominating ``o_i`` itself, which the rank-window count
  excludes.

Both changes only make pruning *more conservative*; the test suite
verifies that PBA with all heuristics enabled returns exactly the
brute-force answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

# no longer called here, but the benchmark's tracer still wraps this
# module attribute by name.
from repro.core.dominance import dominates_vectors  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aux_index import AuxRecord


@dataclass
class PruningConfig:
    """On/off switches for every heuristic (all on by default).

    The ablation benchmarks flip individual switches to measure each
    heuristic's contribution.
    """

    dh1: bool = True
    dh2: bool = True
    dh3: bool = True
    eph1: bool = True
    eph2: bool = True
    eph3: bool = True
    eph4: bool = True
    eph5: bool = True
    iph: bool = True

    @classmethod
    def none(cls) -> "PruningConfig":
        """All heuristics disabled (the ablation baseline)."""
        return cls(
            dh1=False, dh2=False, dh3=False,
            eph1=False, eph2=False, eph3=False, eph4=False, eph5=False,
            iph=False,
        )


@dataclass
class ExactScoreInfo:
    """What the run remembers about an exactly-scored object, for the
    dominance-based heuristics EPH1/EPH2/EPH5."""

    object_id: int
    score: int
    vector: Tuple[float, ...]
    lpos: Tuple[int, ...]
    eq: int


def eph3_bound(n: int, lpos: Sequence[Optional[int]]) -> int:
    """EPH3 upper bound: ``dom(o) <= n - max_j Lpos_o(qj)``.

    Every object at a rank before ``Lpos_o(qj)`` is strictly closer to
    ``qj`` than ``o``, hence not dominated by ``o``; neither is ``o``
    itself (rank ``Lpos`` onward covers it).
    """
    max_lpos = max(p for p in lpos if p is not None)
    return n - max_lpos


def eph4_bound(
    n: int,
    aux_size: int,
    positions: Sequence[int],
    lpos: Sequence[Optional[int]],
) -> int:
    """Safe EPH4 upper bound (see the module docstring).

    ``positions[j]`` is the number of objects retrieved from ``qj`` so
    far (the current scan position ``pos_j``).
    """
    m = len(positions)
    slots = sum(
        positions[j] - lpos[j] + 1  # type: ignore[operator]
        for j in range(m)
    )
    return n - aux_size + slots - m


def eph5_bound(info: ExactScoreInfo, lpos: Sequence[Optional[int]]) -> int:
    """EPH5 upper bound via a previously scored object ``o_i``.

    Objects dominated by ``o`` are either dominated by / equivalent to
    ``o_i``, or sit in a rank window between ``Lpos_o`` and
    ``Lpos_{o_i}`` in some query order; ``+1`` covers ``o_i`` itself.
    """
    window = sum(
        info.lpos[j] - lpos[j]  # type: ignore[operator]
        for j in range(len(lpos))
        if info.lpos[j] > lpos[j]  # type: ignore[operator]
    )
    return info.score + info.eq + window + 1
