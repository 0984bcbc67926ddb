"""Single-flight request coalescing.

Query traffic is heavily skewed in practice (the load generator models
it with a Zipf distribution): at any instant many clients tend to ask
the *same* ``MSD(Q, k)`` question.  Executing each copy independently
multiplies distance computations and page faults for identical answers.
:class:`SingleFlight` deduplicates *concurrent* identical requests: the
first caller for a key becomes the **leader** and actually executes;
every caller that arrives while the leader is in flight becomes a
**follower** and is handed the leader's result (or exception) for free.

The mechanism is intentionally built on
:class:`concurrent.futures.Future`, not asyncio futures, so the same
object works from plain threads (the synchronous
``QueryService.query_sync`` path) and from the asyncio front end via
:func:`asyncio.wrap_future`.

Coalescing interacts with invalidation through *when the key leaves
the inflight map*.  A flight that stays joinable after its answer's
epoch can be superseded is a staleness hole: a request arriving after
a write commits could ride along on a pre-write answer.  The protocol
therefore lands a flight in two phases: :meth:`close` removes the key
— barring new joiners — and is meant to be called at the result's
linearization point (for the query service: while the engine read
lock, which excludes writes, is still held), while completing the
returned future delivers the answer and may happen later (e.g. after
the modeled I/O stall).  Every follower then joined while the
leader's epoch was current at some instant of its wait, so the shared
answer is always one the follower could have computed itself.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Dict, Hashable, Tuple


class SingleFlight:
    """Deduplicate concurrent calls that share a key.

    Protocol: ``begin(key)`` returns ``(future, is_leader)``.  The
    leader *must* eventually call :meth:`close` exactly once and then
    complete the returned future with the result or the exception;
    followers just wait on the future.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, "Future"] = {}
        self.flights = 0
        self.saved = 0

    def begin(self, key: Hashable) -> Tuple["Future", bool]:
        """Join (or start) the flight for ``key``."""
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                self.saved += 1
                return future, False
            future = Future()
            self._inflight[key] = future
            self.flights += 1
            return future, True

    def close(self, key: Hashable) -> "Future":
        """Bar new joiners and return the flight's future (leader only).

        After ``close`` the next :meth:`begin` for ``key`` starts a
        fresh flight even though the returned future is not yet
        completed.  Call it at the result's linearization point — e.g.
        while still holding the lock the result was computed under —
        so no request arriving after that point can inherit an answer
        that predates it; complete the future when ready to deliver.
        """
        with self._lock:
            return self._inflight.pop(key)

    @property
    def inflight(self) -> int:
        """Number of flights currently airborne."""
        with self._lock:
            return len(self._inflight)

    def snapshot(self) -> dict:
        """Counters as plain types (for the metrics export)."""
        with self._lock:
            return {
                "flights": self.flights,
                "saved": self.saved,
                "inflight": len(self._inflight),
            }
