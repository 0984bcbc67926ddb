"""The ``AuxB+``-tree: per-object counter records on disk.

Section 4.1 of the paper: "an auxiliary B+-tree ... serves as a
temporary index for intermediate computations.  Each record contains
the object ID and specific counters that keep the current cardinalities
of intermediate set calculations such as the number of times that an
object was retrieved during scanning, a clone counter used for exact
score computation during backward scanning, its current max-rank
position in the nearest neighbor order from the query objects."

:class:`AuxRecord` is that record; :class:`AuxBPlusTree` stores the
records in the disk-backed :class:`~repro.btree.bplustree.BPlusTree`
(so every record touch is charged I/O, one root-to-leaf descent per
touch) and additionally owns the per-query **retrieval logs** — the
nearest-neighbor orders, kept on pages — that ``ExactScore-RS``'s
reverse scanning walks backwards.  Beside the records it keeps every
record's ``lpos`` as one row of an ``(|AUX|, m)`` array, the table that
``ExactScore-AUX`` compares in one array expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.btree.bplustree import BPlusTree
from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PagedFile

#: entries per retrieval-log page: one (object id, distance) pair is
#: roughly 16 bytes.
_LOG_ENTRY_BYTES = 16

#: ``lpos`` array entry of a position not recorded yet: above every
#: rank, so "recorded and smaller than r" is plain ``< r``.
UNRECORDED = np.iinfo(np.int64).max

#: rows of a fresh ``lpos`` array; it doubles when full.
_LPOS_ROWS = 256


@dataclass
class AuxRecord:
    """Counters for one retrieved object (one ``AuxB+``-tree record).

    ``dists[j]`` / ``lpos[j]`` are the distance to query object ``j``
    and the *leftmost* rank position of ``o``'s equal-distance group in
    ``qj``'s nearest-neighbor order; ``None`` until the object has been
    retrieved from ``qj``.
    """

    object_id: int
    m: int
    q_counter: int = 0
    qc_counter: int = 0
    qc_epoch: int = -1
    max_rank: int = 0
    dists: List[Optional[float]] = field(default_factory=list)
    lpos: List[Optional[int]] = field(default_factory=list)
    eq: Optional[int] = None
    is_common: bool = False
    discarded: bool = False
    #: the record's row of its tree's ``lpos`` array; 0 until it
    #: records a position.
    row: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.dists:
            self.dists = [None] * self.m
        if not self.lpos:
            self.lpos = [None] * self.m

    @property
    def is_complete(self) -> bool:
        """True once retrieved from every query object."""
        return self.q_counter >= self.m

    def vector(self) -> Tuple[float, ...]:
        """The full distance vector (requires :attr:`is_complete`)."""
        assert self.is_complete, "vector requested before completion"
        return tuple(self.dists)  # type: ignore[arg-type]


class RetrievalLog:
    """One query object's nearest-neighbor order, on disk pages.

    Append-only list of ``(object_id, distance)`` in retrieval (rank)
    order; rank positions are 1-based, matching the paper's notation.
    Supports random access by rank — the reverse scanning of
    ``ExactScore-RS`` walks ranks downwards, touching one page per
    ``entries_per_page`` ranks through the LRU buffer.
    """

    def __init__(self, buffer: LRUBuffer, name: str) -> None:
        self.buffer = buffer
        self.name = name
        self.file = PagedFile(manager=buffer.manager, name=name)
        self.entries_per_page = buffer.manager.capacity_for(_LOG_ENTRY_BYTES)
        self._page_ids: List[int] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def append(self, object_id: int, distance: float) -> int:
        """Append an entry; returns its 1-based rank."""
        slot = self._count % self.entries_per_page
        if slot == 0:
            page = self.buffer.new_page([])
            self.file.page_ids.add(page.page_id)
            self._page_ids.append(page.page_id)
        page_id = self._page_ids[-1]
        page = self.buffer.get(page_id)
        page.payload.append((object_id, distance))
        self.buffer.put(page)
        self._count += 1
        return self._count

    def entry(self, rank: int) -> Tuple[int, float]:
        """The ``(object_id, distance)`` at a 1-based rank."""
        if not (1 <= rank <= self._count):
            raise IndexError(f"rank {rank} out of range 1..{self._count}")
        index = rank - 1
        page_id = self._page_ids[index // self.entries_per_page]
        page = self.buffer.get(page_id)
        return page.payload[index % self.entries_per_page]

    def scan_backward(
        self, from_rank: Optional[int] = None
    ) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(rank, object_id, distance)`` from ``from_rank``
        (default: the last rank) down to rank 1."""
        rank = self._count if from_rank is None else from_rank
        while rank >= 1:
            object_id, distance = self.entry(rank)
            yield rank, object_id, distance
            rank -= 1

    def drop(self) -> None:
        for page_id in tuple(self.file.page_ids):
            self.buffer.invalidate(page_id)
        self.file.drop()
        self._page_ids.clear()
        self._count = 0


class AuxBPlusTree:
    """The paper's ``AuxB+``-tree plus the per-query retrieval logs.

    Per-query temporary state: create one per algorithm run, call
    :meth:`drop` (or rely on the algorithm's ``finally``) when done.

    :attr:`lpos` mirrors the ``lpos`` list of every record that records
    a position, one int64 row per record (:data:`UNRECORDED` where
    nothing is recorded), so it grows with |AUX|, not with the ids.  A
    record gets its row (:attr:`AuxRecord.row`) when it first records a
    position; records that never do (the standing-query mirror's)
    share row 0, which stays unrecorded.  :meth:`note_retrieval` writes
    the one position it sets and :meth:`add` rewrites the stored
    record's row.  Writes straight to :attr:`tree` must not change
    ``lpos``.
    """

    def __init__(self, buffer: LRUBuffer, m: int, name: str = "aux") -> None:
        self.buffer = buffer
        self.m = m
        self.tree = BPlusTree(buffer, name=f"{name}-btree")
        self.logs = [
            RetrievalLog(buffer, name=f"{name}-log-q{j}") for j in range(m)
        ]
        self.lpos = np.full((_LPOS_ROWS, m), UNRECORDED, dtype=np.int64)
        self._next_row = 1  # row 0 is every unrecorded record's

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """|AUX|: the number of unique objects inserted so far."""
        return len(self.tree)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self.tree

    def get(self, object_id: int) -> Optional[AuxRecord]:
        """The record for an object, or None if never retrieved."""
        return self.tree.get(object_id)

    def add(self, rec: AuxRecord) -> None:
        """Store a record built whole, or persist one mutated in place
        (one descent, one write)."""
        self.tree.insert(rec.object_id, rec)
        if not rec.row:
            if all(p is None for p in rec.lpos):
                return  # row 0 already reads as unrecorded
            self._new_row(rec)
        self.lpos[rec.row] = [UNRECORDED if p is None else p for p in rec.lpos]

    def remove(self, object_id: int) -> bool:
        """Drop one record; returns True if it existed.

        Used by the standing-query maintainers
        (:mod:`repro.streaming.continuous`), whose aux state is
        long-lived and must shrink as window members expire — unlike
        the batch algorithms, which only ever :meth:`drop` wholesale.
        Their records record no position, so no ``lpos`` row is left
        behind.
        """
        return self.tree.delete(object_id)

    def records(self) -> Iterator[AuxRecord]:
        """All records in object-id order (one leaf walk)."""
        for _key, rec in self.tree.items():
            yield rec

    def lpos_rows(self) -> Tuple[List[int], List[AuxRecord]]:
        """Every record's row of :attr:`lpos`, and the records, in id
        order.

        One leaf walk, charged as :meth:`records` is: Procedure 3's
        full scan, with the comparison left to the caller's array code.
        """
        recs: List[AuxRecord] = []
        for _keys, values in self.tree.leaves():
            recs += values
        return [rec.row for rec in recs], recs

    def _new_row(self, rec: AuxRecord) -> None:
        """Give ``rec`` an unrecorded :attr:`lpos` row."""
        row = self._next_row
        self._next_row += 1
        if row == len(self.lpos):
            grown = np.full((2 * row, self.m), UNRECORDED, dtype=np.int64)
            grown[:row] = self.lpos
            self.lpos = grown
        rec.row = row

    def snapshot_records(self) -> List[Tuple[int, int, int, Tuple]]:
        """Plain-type image of every record, in object-id order.

        Checkpoints (:mod:`repro.recovery`) embed this so a recovered
        standing query's recomputed mirror can be verified against the
        exact counters that were durable at snapshot time.
        """
        return [
            (
                rec.object_id,
                rec.q_counter,
                rec.qc_counter,
                tuple(
                    None if d is None else float(d) for d in rec.dists
                ),
            )
            for rec in self.records()
        ]

    # ------------------------------------------------------------------
    # retrieval bookkeeping
    # ------------------------------------------------------------------
    def note_retrieval(
        self,
        query_index: int,
        object_id: int,
        distance: float,
        discard: bool = False,
    ) -> AuxRecord:
        """Record that ``object_id`` came out of query ``query_index``'s
        incremental-NN stream at the next rank.

        Updates the retrieval log, the record's per-query distance,
        ``Lpos`` (leftmost rank of the equal-distance group), the
        ``q_counter`` and the max-rank — everything Procedure 1 line 4
        stores — in one :meth:`~repro.btree.bplustree.BPlusTree.upsert`
        of the record.  ``discard`` marks an object seen here for the
        first time as discarded (DH1/DH3) in that same write.
        """
        log = self.logs[query_index]
        previous_rank = len(log)
        group_lpos = previous_rank + 1
        if previous_rank >= 1:
            _prev_obj, prev_dist = log.entry(previous_rank)
            if prev_dist == distance:
                prev_rec = self.tree.get(_prev_obj)
                assert prev_rec is not None
                group_lpos = prev_rec.lpos[query_index]
        rank = log.append(object_id, distance)
        m = self.m

        def retrieve(rec: Optional[AuxRecord]) -> AuxRecord:
            if rec is None:
                rec = AuxRecord(object_id=object_id, m=m)
            assert rec.dists[query_index] is None, (
                f"object {object_id} retrieved twice from query {query_index}"
            )
            rec.dists[query_index] = distance
            rec.lpos[query_index] = group_lpos
            rec.q_counter += 1
            rec.max_rank = max(rec.max_rank, rank)
            if rec.q_counter >= m:
                rec.is_common = True
            if discard and rec.q_counter == 1:
                rec.discarded = True
            return rec

        rec = self.tree.upsert(object_id, retrieve)
        if not rec.row:
            self._new_row(rec)
        self.lpos[rec.row, query_index] = group_lpos
        return rec

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drop(self) -> None:
        """Release every page (records and logs)."""
        self.tree.drop()
        self.lpos.fill(UNRECORDED)
        self._next_row = 1
        for log in self.logs:
            log.drop()
