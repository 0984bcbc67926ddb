"""Named crash points: deterministic process-death injection.

`repro.faults` can corrupt a page or fail a read, but the
fault a durable system sees most often is the one it cannot catch:
the process dies mid-write.  This module makes that fault *nameable*
and *schedulable*: the durability code threads ``crashpoint("...")``
calls through every write path (WAL appends, commit records,
checkpoint rename/truncate, standing-query registration), and a test
installs a :class:`CrashPlan` selecting one site and one hit count.

Two firing modes:

* ``mode="kill"`` — ``SIGKILL`` the current process.  Used by the
  subprocess harness (:mod:`repro.recovery.harness`): the worker
  really dies, nothing gets a chance to flush, and the parent then
  verifies recovery from whatever reached the disk.
* ``mode="raise"`` — raise :class:`SimulatedCrash`.  Used by the
  in-process property tests (hypothesis explores interleavings far too
  many to fork for).  ``SimulatedCrash`` derives from
  :class:`BaseException` so no ``except Exception`` retry/cleanup
  handler on the write path can accidentally swallow a "crash".

With no plan installed (the default, and always in production) every
``crashpoint()`` call is a single attribute test — the hot path pays
one ``is None`` check.

The registry :data:`CRASH_POINTS` is the catalog the sweep harness
iterates: *every* registered site must be reachable by the harness
workload and recover to a verified state (``tests/test_recovery_crash``).
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: every named crash site threaded through the write paths, in rough
#: write-path order.  Adding a site here without wiring a
#: ``crashpoint()`` call (or vice versa) fails the sweep tests.
CRASH_POINTS: Tuple[str, ...] = (
    # storage: fired before a WAL-captured page mutation is applied.
    "storage.page.pre_mutate",
    # WAL batch lifecycle: before the OS write, mid-write (torn frame),
    # either side of fsync.
    "wal.append.pre_write",
    "wal.append.torn_write",
    "wal.append.pre_fsync",
    "wal.append.post_fsync",
    # engine mutations: either side of the commit record.
    "engine.insert.pre_commit",
    "engine.insert.post_commit",
    "engine.delete.pre_commit",
    "engine.delete.post_commit",
    # standing-query registration (streaming/service layer).
    "streaming.register.pre_commit",
    # checkpoint lifecycle: before the temp write, before/after the
    # atomic rename, after the WAL truncate.
    "checkpoint.pre_write",
    "checkpoint.pre_rename",
    "checkpoint.post_rename",
    "checkpoint.post_truncate",
)

_REGISTERED = frozenset(CRASH_POINTS)


class SimulatedCrash(BaseException):
    """In-process stand-in for SIGKILL (``mode="raise"`` plans).

    Deliberately a :class:`BaseException`: the write paths' retry loops
    and cleanup handlers catch :class:`Exception`, and a crash must not
    be absorbable by any of them — exactly like the real signal.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"simulated crash at {site}")
        self.site = site


@dataclass
class CrashPlan:
    """One scheduled crash: die at the ``hit``-th arrival at ``site``."""

    site: str
    hit: int = 1
    mode: str = "kill"
    #: arrivals at ``site`` so far (mutated by :func:`crashpoint`).
    count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.site not in _REGISTERED:
            raise ValueError(
                f"unknown crash point {self.site!r}; registered: "
                f"{sorted(_REGISTERED)}"
            )
        if self.hit < 1:
            raise ValueError("hit must be >= 1")
        if self.mode not in ("kill", "raise"):
            raise ValueError("mode must be 'kill' or 'raise'")


#: the installed plan; ``None`` keeps every crashpoint() a no-op.
_PLAN: Optional[CrashPlan] = None


def install_plan(plan: CrashPlan) -> None:
    """Arm one crash plan (replacing any previous one)."""
    global _PLAN
    plan.count = 0
    _PLAN = plan


def clear_plan() -> None:
    """Disarm crash injection (idempotent)."""
    global _PLAN
    _PLAN = None


def active_plan() -> Optional[CrashPlan]:
    """The armed plan, or None."""
    return _PLAN


def fire(site: str) -> None:
    """Execute the armed plan's death at ``site`` (never returns)."""
    plan = _PLAN
    if plan is None:  # pragma: no cover - defensive
        return
    if plan.mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        # the signal is not deliverable synchronously in every runtime;
        # never fall through to "survived the crash".
        signal.pause()  # pragma: no cover
    raise SimulatedCrash(site)


def crashpoint(site: str) -> None:
    """Die here if the armed plan says so; free when no plan is armed."""
    plan = _PLAN
    if plan is None or plan.site != site:
        return
    plan.count += 1
    if plan.count >= plan.hit:
        fire(site)


def crashpoint_due(site: str) -> bool:
    """Would :func:`crashpoint` fire here?  (Does *not* fire.)

    For sites that need work *between* the decision and the death —
    the torn-write site writes a partial WAL frame first, then calls
    :func:`fire`.  Advances the hit counter exactly like
    :func:`crashpoint`.
    """
    plan = _PLAN
    if plan is None or plan.site != site:
        return False
    plan.count += 1
    return plan.count >= plan.hit


def sample_crash_points(seed: int, count: int) -> List[str]:
    """A deterministic sample of registered sites (CI smoke sweeps)."""
    if count >= len(CRASH_POINTS):
        return list(CRASH_POINTS)
    return random.Random(seed).sample(list(CRASH_POINTS), count)
