"""repro.faults — deterministic fault injection and the machinery
that survives it.

The paper's cost model (and the PR-1 serving layer) assume every
component succeeds; this subsystem makes failure a first-class,
*reproducible* input instead:

* **typed faults** (``errors.py``) — transient vs permanent page
  faults and checksum :class:`StorageCorruption`, each tagged
  ``layer`` and ``retryable``;
* **seeded injection** (``chaos.py``) — :class:`ChaosConfig` bundles
  storage fault probabilities, :class:`FaultInjector` draws every
  decision from seeded RNG streams and logs it, so a chaos run replays
  byte-identically from its seed;
* **retries** (``retry.py``) — capped exponential backoff with
  deterministic jitter, applied to transient storage faults by
  :class:`~repro.storage.buffer.LRUBuffer`;
* **checksums** (``checksum.py``) — CRC32 over each page's payload,
  stamped on write and verified on physical read whenever an injector
  is attached.

See ``docs/robustness.md`` for the fault model.
"""

from repro.faults.chaos import (
    PROFILES,
    ChaosConfig,
    FaultInjector,
    FaultRecord,
)
from repro.faults.checksum import payload_checksum
from repro.faults.crashpoints import (
    CRASH_POINTS,
    CrashPlan,
    SimulatedCrash,
    clear_plan,
    crashpoint,
    install_plan,
    sample_crash_points,
)
from repro.faults.errors import (
    FaultError,
    PermanentPageError,
    StorageCorruption,
    StorageFault,
    TransientPageError,
)
from repro.faults.retry import RetryPolicy, call_with_retry

__all__ = [
    "CRASH_POINTS",
    "PROFILES",
    "ChaosConfig",
    "CrashPlan",
    "FaultError",
    "FaultInjector",
    "FaultRecord",
    "PermanentPageError",
    "RetryPolicy",
    "SimulatedCrash",
    "StorageCorruption",
    "StorageFault",
    "TransientPageError",
    "call_with_retry",
    "clear_plan",
    "crashpoint",
    "install_plan",
    "payload_checksum",
    "sample_crash_points",
]
