"""Low-overhead span tracing with paper-cost attribution.

The benchmark harness answers *how much* a query cost along the
paper's three axes (CPU time, I/O as page faults x 8 ms, distance
computations — Section 5); this module answers *where inside the
query* those costs accrued: admission wait vs lock wait vs skyline
rounds vs exact-score refinement vs page I/O.

Design
------
* **Ambient context, no-op fast path.**  Instrumented code calls the
  module-level :func:`span` / :func:`event` helpers.  They consult a
  :mod:`contextvars` variable holding the active :class:`TraceScope`;
  when no trace is active (the default) they return a shared no-op
  context manager after a single ``ContextVar.get`` — no allocation,
  no lock, no clock read.  Tracing disabled is therefore free enough
  to leave the instrumentation permanently compiled in, and provably
  neutral: the helpers never touch a page, a metric or an RNG
  (``tests/test_obs_neutrality.py`` pins this).
* **Propagation.**  ``ContextVar`` gives every asyncio task its own
  span stack for free.  Worker threads do *not* inherit the event
  loop's context, so the service captures ``contextvars.copy_context()``
  before ``run_in_executor`` and runs the worker body inside it; plain
  threads can use :func:`capture` + :func:`attach`.  Per-thread cost
  counters (``BufferPool.local_io``, ``CountingMetric.local_count``)
  are thread-local, which is exactly why a span's cost delta is
  attributable: a span runs on one thread, and that thread's counters
  move only for work the span's subtree performed.
* **Cost deltas.**  A scope may carry a *probe* — a callable returning
  a :class:`CostSnapshot` of the calling thread's counters.  Spans
  opened under a probe snapshot it on entry and exit and record the
  difference, so every span carries exactly the page faults, distance
  computations and exact-score computations of its own subtree.
  CPU time is the span's wall duration (the same convention the
  paper's ``Stopwatch`` uses).
* **Deterministic tests.**  The clock is injectable
  (``Tracer(clock=...)``); span/trace ids are plain counters.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.storage.stats import PAGE_FAULT_COST_SECONDS

__all__ = [
    "CostSnapshot",
    "Span",
    "TraceScope",
    "Tracer",
    "active",
    "attach",
    "capture",
    "event",
    "explaining",
    "span",
    "span_or_root",
    "NOOP_SPAN",
]


@dataclass(frozen=True)
class CostSnapshot:
    """A point-in-time reading of the paper's per-thread cost counters."""

    page_faults: int = 0
    buffer_hits: int = 0
    distance_computations: int = 0
    exact_score_computations: int = 0

    def delta_since(self, earlier: "CostSnapshot") -> "CostSnapshot":
        """Counter movement between two readings (``self - earlier``)."""
        return CostSnapshot(
            page_faults=self.page_faults - earlier.page_faults,
            buffer_hits=self.buffer_hits - earlier.buffer_hits,
            distance_computations=(
                self.distance_computations - earlier.distance_computations
            ),
            exact_score_computations=(
                self.exact_score_computations
                - earlier.exact_score_computations
            ),
        )

    @property
    def io_seconds(self) -> float:
        """Simulated I/O time of these counters (faults x 8 ms)."""
        return self.page_faults * PAGE_FAULT_COST_SECONDS

    def as_dict(self) -> dict:
        return {
            "page_faults": self.page_faults,
            "buffer_hits": self.buffer_hits,
            "distance_computations": self.distance_computations,
            "exact_score_computations": self.exact_score_computations,
            "io_seconds": self.io_seconds,
        }


#: probe signature: read the calling thread's counters, cheaply.
CostProbe = Callable[[], CostSnapshot]


class Span:
    """One finished (or in-flight) unit of traced work.

    ``phase`` follows the Chrome trace-event convention: ``"X"`` for a
    complete span with a duration, ``"i"`` for an instant event.
    ``costs`` is the :class:`CostSnapshot` *delta* over the span's
    lifetime, or ``None`` when no probe was ambient (e.g. event-loop
    spans, where per-thread engine counters are meaningless).
    """

    __slots__ = (
        "name",
        "category",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "thread_id",
        "thread_name",
        "args",
        "costs",
        "phase",
    )

    def __init__(
        self,
        name: str,
        category: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        args: Optional[Dict[str, Any]] = None,
        phase: str = "X",
    ) -> None:
        self.name = name
        self.category = category
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        self.args: Dict[str, Any] = args if args is not None else {}
        self.costs: Optional[CostSnapshot] = None
        self.phase = phase

    def set(self, key: str, value: Any) -> None:
        """Attach one argument to the span (JSON-serialisable values)."""
        self.args[key] = value

    def __bool__(self) -> bool:  # real spans are truthy, the no-op isn't
        return True

    @property
    def duration(self) -> float:
        """Wall seconds between start and end (0.0 while in flight)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def as_dict(self) -> dict:
        """Plain-type representation (the native trace file format)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "cat": self.category,
            "ph": self.phase,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "thread": self.thread_id,
            "thread_name": self.thread_name,
            "args": dict(self.args),
            "costs": self.costs.as_dict() if self.costs is not None else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"id={self.span_id}, dur={self.duration:.6f})"
        )


class _NoopSpan:
    """Shared do-nothing span handed out when tracing is inactive."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _NoopContext:
    """Shared do-nothing context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, *_exc: object) -> bool:
        return False


_NOOP_CONTEXT = _NoopContext()


@dataclass(frozen=True)
class TraceScope:
    """The ambient tracing state: who records, under which parent.

    ``profile`` is the explain run's index-profile accumulator
    (:class:`repro.obs.explain.IndexProfile`) under an explain scope,
    ``None`` otherwise; child spans inherit it like the probe.
    """

    tracer: "Tracer"
    trace_id: int
    span: Optional[Span]
    probe: Optional[CostProbe]
    profile: Optional[Any] = None


_SCOPE: "ContextVar[Optional[TraceScope]]" = ContextVar(
    "repro_obs_scope", default=None
)


class Tracer:
    """Collects finished spans from every thread of one traced system.

    ``clock`` is injectable for deterministic tests; ``capacity``
    bounds memory (spans past it are counted in ``dropped``, never
    silently ignored).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        capacity: int = 100_000,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.clock = clock
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._listeners: List[Callable[[Span], None]] = []
        self.dropped = 0
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def trace(
        self,
        name: str,
        category: str = "request",
        args: Optional[Dict[str, Any]] = None,
        probe: Optional[CostProbe] = None,
    ) -> "_SpanContext":
        """Open a new root span (a fresh trace id) and make it ambient.

        Use for the outermost unit of work — one served request, one
        recorded workload step.  Nested instrumented code then attaches
        via :func:`span` / :func:`event` automatically.
        """
        return _SpanContext(
            tracer=self,
            trace_id=next(self._trace_ids),
            parent=None,
            name=name,
            category=category,
            args=args,
            probe=probe,
        )

    def add_listener(
        self, listener: Callable[[Span], None]
    ) -> Callable[[], None]:
        """Call ``listener(span)`` for every span as it finishes.

        Listeners observe spans the capacity bound would drop, too —
        they are for live aggregation (e.g. the service's phase-latency
        histograms), not storage.  A listener that raises is dropped
        from the list rather than poisoning the traced request.
        Returns an unsubscribe callable.
        """
        with self._lock:
            self._listeners.append(listener)

        def unsubscribe() -> None:
            with self._lock:
                try:
                    self._listeners.remove(listener)
                except ValueError:
                    pass

        return unsubscribe

    def record(self, span_obj: Span) -> None:
        """Store one finished span (bounded; drops are counted)."""
        with self._lock:
            if len(self._spans) < self.capacity:
                self._spans.append(span_obj)
            else:
                self.dropped += 1
            listeners = list(self._listeners) if self._listeners else None
        if listeners is not None:
            for listener in listeners:
                try:
                    listener(span_obj)
                except Exception:
                    with self._lock:
                        try:
                            self._listeners.remove(listener)
                        except ValueError:
                            pass

    # ------------------------------------------------------------------
    # introspection / export
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """A snapshot copy of every recorded span, in finish order."""
        with self._lock:
            return list(self._spans)

    def export(self) -> List[dict]:
        """Every recorded span as plain dicts (the native format)."""
        return [span_obj.as_dict() for span_obj in self.spans()]

    def clear(self) -> None:
        """Drop every recorded span (dropped counter survives)."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def snapshot(self) -> dict:
        """Counters as plain types (for the metrics export)."""
        with self._lock:
            return {
                "spans": len(self._spans),
                "dropped": self.dropped,
                "capacity": self.capacity,
            }


class _SpanContext:
    """Context manager that opens a span and makes it ambient."""

    __slots__ = (
        "_tracer",
        "_trace_id",
        "_parent",
        "_name",
        "_category",
        "_args",
        "_probe",
        "_profile",
        "_span",
        "_token",
        "_cost0",
    )

    def __init__(
        self,
        tracer: Tracer,
        trace_id: int,
        parent: Optional[Span],
        name: str,
        category: str,
        args: Optional[Dict[str, Any]],
        probe: Optional[CostProbe],
        profile: Optional[Any] = None,
    ) -> None:
        self._tracer = tracer
        self._trace_id = trace_id
        self._parent = parent
        self._name = name
        self._category = category
        self._args = args
        self._probe = probe
        self._profile = profile

    def __enter__(self) -> Span:
        tracer = self._tracer
        self._span = Span(
            name=self._name,
            category=self._category,
            trace_id=self._trace_id,
            span_id=next(tracer._span_ids),
            parent_id=self._parent.span_id if self._parent else None,
            start=tracer.clock(),
            args=self._args,
        )
        self._cost0 = self._probe() if self._probe is not None else None
        self._token = _SCOPE.set(
            TraceScope(
                tracer=tracer,
                trace_id=self._trace_id,
                span=self._span,
                probe=self._probe,
                profile=self._profile,
            )
        )
        return self._span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        _SCOPE.reset(self._token)
        span_obj = self._span
        span_obj.end = self._tracer.clock()
        if self._cost0 is not None:
            span_obj.costs = self._probe().delta_since(self._cost0)
        if exc_type is not None:
            span_obj.args["error"] = exc_type.__name__
        self._tracer.record(span_obj)
        return False


# ----------------------------------------------------------------------
# module-level helpers used by instrumented code
# ----------------------------------------------------------------------
def span(
    name: str,
    category: str = "span",
    args: Optional[Dict[str, Any]] = None,
    probe: Optional[CostProbe] = None,
):
    """Open a child span under the ambient scope (no-op when inactive).

    ``probe`` overrides the ambient cost probe for this span and its
    descendants — the engine uses this to attach per-query counters
    the moment they exist.  Use the yielded span's :meth:`Span.set`
    for arguments that are only known mid-flight; guard expensive ones
    with ``if span_obj:`` (the no-op span is falsy).
    """
    scope = _SCOPE.get()
    if scope is None:
        return _NOOP_CONTEXT
    return _SpanContext(
        tracer=scope.tracer,
        trace_id=scope.trace_id,
        parent=scope.span,
        name=name,
        category=category,
        args=args,
        probe=probe if probe is not None else scope.probe,
        profile=scope.profile,
    )


def span_or_root(
    name: str,
    category: str,
    probe: Optional[CostProbe],
    profile: Optional[Any],
) -> Tuple[Tracer, _SpanContext]:
    """Open ``name`` with its own probe and explain profile.

    Under an ambient scope the span is a child of it, recorded by the
    ambient tracer; otherwise it is the root of a new trace on a
    private :class:`Tracer`.  Returns ``(tracer, context manager)``.
    """
    scope = _SCOPE.get()
    if scope is None:
        tracer = Tracer()
        trace_id, parent = next(tracer._trace_ids), None
    else:
        tracer, trace_id, parent = scope.tracer, scope.trace_id, scope.span
    return tracer, _SpanContext(
        tracer=tracer,
        trace_id=trace_id,
        parent=parent,
        name=name,
        category=category,
        args=None,
        probe=probe,
        profile=profile,
    )


def event(
    name: str,
    category: str = "event",
    args: Optional[Dict[str, Any]] = None,
) -> None:
    """Record an instant event under the ambient scope (no-op when
    inactive).  Used for rare point-in-time facts — an injected fault,
    a retry, a checksum failure."""
    scope = _SCOPE.get()
    if scope is None:
        return
    tracer = scope.tracer
    now = tracer.clock()
    instant = Span(
        name=name,
        category=category,
        trace_id=scope.trace_id,
        span_id=next(tracer._span_ids),
        parent_id=scope.span.span_id if scope.span else None,
        start=now,
        args=args,
        phase="i",
    )
    instant.end = now
    tracer.record(instant)


def active() -> bool:
    """Whether a trace is ambient on the calling thread/task."""
    return _SCOPE.get() is not None


def explaining() -> Optional[Any]:
    """The ambient explain profile, or ``None`` when not explaining.

    One ``ContextVar.get`` — the entire cost of explain off at a hook
    site.
    """
    scope = _SCOPE.get()
    return scope.profile if scope is not None else None


def capture() -> Optional[TraceScope]:
    """The ambient scope, for handing to another thread (or ``None``)."""
    return _SCOPE.get()


class attach:
    """Re-establish a captured scope on another thread::

        scope = trace.capture()          # on the submitting side
        with trace.attach(scope):        # on the worker thread
            ...                          # spans parent correctly

    A ``None`` scope is accepted and is a no-op, so call sites need no
    branching.  (``loop.run_in_executor`` does not propagate context;
    the service instead runs workers inside ``contextvars.copy_context``,
    which carries the scope along with everything else.)
    """

    __slots__ = ("_scope", "_token")

    def __init__(self, scope: Optional[TraceScope]) -> None:
        self._scope = scope

    def __enter__(self) -> Optional[TraceScope]:
        self._token = _SCOPE.set(self._scope) if self._scope else None
        return self._scope

    def __exit__(self, *_exc: object) -> bool:
        if self._token is not None:
            _SCOPE.reset(self._token)
        return False

