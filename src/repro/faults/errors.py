"""Typed failures raised by the fault-injection framework.

Every fault the framework can inject (or detect) is a subclass of
:class:`FaultError` carrying two classification attributes:

* ``layer`` — which subsystem produced it (``"storage"``),
* ``retryable`` — whether trying again can plausibly succeed.  The
  retry loops in :mod:`repro.faults.retry` and the serving layer's
  error mapping (`repro.service`) both branch on this flag alone, so
  adding a new fault kind never requires touching the recovery code.

The hierarchy is deliberately *separate* from
:class:`~repro.storage.pages.PageError`: ``PageError`` means the caller
used the API wrong (double free, unknown id) and must never be retried,
while a ``FaultError`` means the simulated hardware misbehaved.
"""

from __future__ import annotations


class FaultError(Exception):
    """Base class of every injected or detected fault."""

    #: subsystem that produced the fault ("storage", ...).
    layer = "fault"
    #: whether retrying the failed operation can plausibly succeed.
    retryable = False


# ----------------------------------------------------------------------
# storage layer
# ----------------------------------------------------------------------
class StorageFault(FaultError):
    """Base class of simulated-disk faults."""

    layer = "storage"


class TransientPageError(StorageFault):
    """A page read failed transiently (e.g. a timeout); retry it."""

    retryable = True

    def __init__(self, disk: str, page_id: int) -> None:
        super().__init__(
            f"transient read fault on page {page_id} of {disk}"
        )
        self.disk = disk
        self.page_id = page_id


class PermanentPageError(StorageFault):
    """A page read failed permanently (e.g. a dead sector)."""

    def __init__(self, disk: str, page_id: int) -> None:
        super().__init__(
            f"permanent read fault on page {page_id} of {disk}"
        )
        self.disk = disk
        self.page_id = page_id


class StorageCorruption(StorageFault):
    """A page's CRC32 checksum did not match its payload on read.

    Never retryable: the corruption is on the (simulated) disk, so a
    re-read returns the same corrupted bytes.
    """

    def __init__(self, disk: str, page_id: int) -> None:
        super().__init__(
            f"checksum mismatch reading page {page_id} of {disk}"
        )
        self.disk = disk
        self.page_id = page_id
