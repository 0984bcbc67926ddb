"""Seeded, reproducible fault injection.

:class:`ChaosConfig` is a frozen bundle of storage fault
probabilities plus the recovery tunables (retry policy, crash plan);
:class:`FaultInjector` turns one config into decisions.  Every decision
is drawn from a :class:`random.Random` stream derived from ``seed``,
and every injected fault (and every retry taken in response) is
appended to an in-order log — so two runs of the same
workload with the same seed produce **byte-identical** fault sequences,
retry counts and therefore results.  That reproducibility is the whole
point: a chaos failure found in CI replays locally from its seed.

Streams are independent: the storage stream advances only on
physical page reads and the jitter stream only on retry backoff, so
one never perturbs the sequence seen by the other.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.checksum import CORRUPTION_MASK
from repro.faults.crashpoints import CrashPlan, install_plan
from repro.faults.errors import PermanentPageError, TransientPageError
from repro.faults.retry import RetryPolicy
from repro.obs import trace


@dataclass(frozen=True)
class ChaosConfig:
    """Fault probabilities and recovery tunables for one chaos run.

    All probabilities are per physical page read and default to 0 — a
    default config attached to a system changes nothing except enabling
    page checksums.
    """

    seed: int = 0

    #: the named profile this config came from (``ChaosConfig.profile``
    #: stamps it; hand-built configs stay ``None``).  Purely
    #: informational — surfaced by metrics snapshots so a scrape is
    #: attributable to the fault mix that produced it.
    profile_name: Optional[str] = None

    # storage layer (per physical page read)
    read_transient_p: float = 0.0
    read_permanent_p: float = 0.0
    corrupt_p: float = 0.0
    storage_latency_p: float = 0.0
    storage_latency_seconds: float = 0.002

    # retry policy applied to transient storage faults
    retry_max_attempts: int = 4
    retry_base_delay: float = 0.001
    retry_max_delay: float = 0.050
    retry_jitter: float = 0.5
    #: cap on cumulative backoff per retry loop (None = the curve's
    #: own jitter-free sum; see RetryPolicy.worst_case_total).
    retry_max_total_delay: Optional[float] = None

    # crash injection (repro.faults.crashpoints): die at the
    # ``crash_hit``-th arrival at the named site.  ``None`` disables.
    crash_point: Optional[str] = None
    crash_hit: int = 1
    crash_mode: str = "kill"

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.endswith("_p"):
                value = getattr(self, f.name)
                if not 0.0 <= value <= 1.0:
                    raise ValueError(
                        f"{f.name} must be a probability in [0, 1], "
                        f"got {value}"
                    )

    @property
    def retry_policy(self) -> RetryPolicy:
        """The retry loop shape this config prescribes."""
        return RetryPolicy(
            max_attempts=self.retry_max_attempts,
            base_delay=self.retry_base_delay,
            max_delay=self.retry_max_delay,
            jitter=self.retry_jitter,
            max_total_delay=self.retry_max_total_delay,
        )

    @property
    def crash_plan(self) -> Optional["CrashPlan"]:
        """The crash schedule this config prescribes (None = none)."""
        if self.crash_point is None:
            return None
        return CrashPlan(
            site=self.crash_point,
            hit=self.crash_hit,
            mode=self.crash_mode,
        )

    @classmethod
    def profile(cls, name: str, seed: int = 0) -> "ChaosConfig":
        """A named fault profile (see :data:`PROFILES`)."""
        try:
            overrides = PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown fault profile {name!r}; choose from "
                f"{sorted(PROFILES)}"
            ) from None
        return replace(cls(seed=seed, profile_name=name), **overrides)


#: named fault profiles for the load generator / chaos harness.  Keys
#: are CLI-friendly names; values are ChaosConfig field overrides.
PROFILES: Dict[str, Dict[str, Any]] = {
    # no faults at all: the control group every chaos run compares to.
    "none": {},
    # the tier-1 smoke profile: rare transient read faults, all
    # absorbed by retries — results must equal the fault-free run.
    "low": {
        "read_transient_p": 0.01,
    },
    # a disk with frequent transient read errors and occasional
    # latency spikes: retries absorb everything, throughput drops.
    "flaky-disk": {
        "read_transient_p": 0.10,
        "storage_latency_p": 0.05,
        "storage_latency_seconds": 0.001,
    },
    # rare hard failures: permanent read errors and corrupted pages
    # surface as typed fatal errors callers must handle.
    "bad-sectors": {
        "read_transient_p": 0.02,
        "read_permanent_p": 0.005,
        "corrupt_p": 0.005,
    },
}


@dataclass
class FaultRecord:
    """One injected fault / retry, in injection order."""

    layer: str
    kind: str
    target: str

    def as_tuple(self) -> Tuple[str, str, str]:
        return (self.layer, self.kind, self.target)


class FaultInjector:
    """Deterministic fault source shared by every layer of one system.

    One injector is attached to the storage managers and (through
    them) the service; it owns the seeded RNG streams, the retry
    policy, the sleep hook and the fault log.  ``sleep`` is injectable
    so tests can run injected latency and backoff without real
    wall-clock delay.
    """

    def __init__(
        self,
        config: Optional[ChaosConfig] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ChaosConfig()
        self._sleep = sleep
        self.clock = clock
        plan = self.config.crash_plan
        if plan is not None:
            # arming is process-global: a crash is a property of the
            # process, not of one storage manager.
            install_plan(plan)
        root = random.Random(self.config.seed)
        self._storage_rng = random.Random(root.randrange(1 << 62))
        # the retired RPC stream's slot: keeps the jitter stream's values
        root.randrange(1 << 62)
        self._retry_rng = random.Random(root.randrange(1 << 62))
        self._lock = threading.Lock()
        self._log: List[FaultRecord] = []
        self._counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # shared recovery machinery
    # ------------------------------------------------------------------
    @property
    def retry_policy(self) -> RetryPolicy:
        return self.config.retry_policy

    @property
    def retry_rng(self) -> random.Random:
        """The jitter stream for retry backoff (seed-derived)."""
        return self._retry_rng

    def sleep(self, seconds: float) -> None:
        """Enact injected latency / backoff via the configured hook."""
        if seconds > 0:
            self._sleep(seconds)

    def note_retry(self, layer: str, target: str) -> None:
        """Record one retry taken in response to a transient fault."""
        self._record(layer, "retry", target)

    def note_checksum_failure(self, disk: str, page_id: int) -> None:
        """Record one detected page-checksum mismatch."""
        self._record("storage", "checksum_failure", f"{disk}:{page_id}")

    def _record(self, layer: str, kind: str, target: str) -> None:
        with self._lock:
            self._log.append(FaultRecord(layer, kind, target))
            key = f"{layer}.{kind}"
            self._counters[key] = self._counters.get(key, 0) + 1
        # every fault-framework event funnels through here, so this one
        # call makes faults visible inside query traces too.
        trace.event(
            f"fault.{layer}.{kind}", category="fault", args={"target": target}
        )

    # ------------------------------------------------------------------
    # storage decisions (called by PageManager on physical reads)
    # ------------------------------------------------------------------
    def on_physical_read(self, disk: str, page) -> None:
        """Maybe delay, corrupt or fail one physical page read.

        All four decisions are drawn on every read so the consumed RNG
        sequence — and hence everything downstream — depends only on
        the read sequence, not on which faults happened to fire.
        Corruption tampers the stored checksum *before* any raise, so
        a transiently-failed read retried onto a corrupted page still
        detects the corruption.
        """
        cfg = self.config
        with self._lock:
            rng = self._storage_rng
            latency = rng.random() < cfg.storage_latency_p
            transient = rng.random() < cfg.read_transient_p
            permanent = rng.random() < cfg.read_permanent_p
            corrupt = rng.random() < cfg.corrupt_p
        target = f"{disk}:{page.page_id}"
        if latency:
            self._record("storage", "latency", target)
            self.sleep(cfg.storage_latency_seconds)
        if corrupt and page.crc is not None:
            self._record("storage", "corrupt", target)
            page.crc ^= CORRUPTION_MASK
        if permanent:
            self._record("storage", "read_permanent", target)
            raise PermanentPageError(disk, page.page_id)
        if transient:
            self._record("storage", "read_transient", target)
            raise TransientPageError(disk, page.page_id)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def fault_log(self) -> Tuple[Tuple[str, str, str], ...]:
        """The in-order (layer, kind, target) log of every event."""
        with self._lock:
            return tuple(record.as_tuple() for record in self._log)

    def counters(self) -> Dict[str, int]:
        """Event counts keyed ``"layer.kind"``."""
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> dict:
        """Config echo and counters, JSON-serialisable."""
        with self._lock:
            counters = dict(self._counters)
            events = len(self._log)
        return {
            "seed": self.config.seed,
            "events": events,
            "counters": counters,
        }
