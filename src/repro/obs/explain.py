"""EXPLAIN/ANALYZE introspection for metric top-k dominating queries.

The span tracer (:mod:`repro.obs.trace`) answers *where* a query spent
the paper's cost counters; an explain plan also answers *why the rest
was never spent*: which lemma discarded which candidates, how the index
descent pruned per level, and how the PBA threshold closed in on the
answer.

Explain is one trace scope.  :func:`explained` opens a root span (a
child of the ambient trace, or the root of a private tracer), runs the
execution under it and captures the root's span subtree through a
tracer listener — which also sees spans the tracer's capacity bound
drops.  Everything the plan shows is data on that subtree:

* **phases** — per-span-name *self* cost attribution
  (:func:`repro.obs.summary.phase_summary`).  The self distance
  computations of all phases sum exactly to
  ``QueryStats.distance_computations``.
* **funnel** — candidates entering/surviving each pruning phase, with
  a per-rule breakdown of the discards.  A stage is either a span
  carrying ``entering``/``survivors``/``discards`` args (its ``costs``
  are the span's own cost delta) or a ``funnel`` instant recorded after
  the fact.  Every stage conserves:
  ``entering == survivors + sum(discards.values())`` (the validator
  enforces it, and a hypothesis property test pins it).
* **index_profile** — per-level index visit counters, accumulated by
  the :class:`IndexProfile` that rides on the explain scope and
  attached to the root span, tagged with the backend that produced
  them (``"mtree"``, ``"pmtree"``, ...).
* **timeline** — heap/threshold evolution as ``timeline`` instants
  (bounded; drops are counted, never silent).

Funnel args and the instants are recorded only under an explain scope,
so plain traces do not change.  Explain is a **strict observer**:
explain off costs one ``ContextVar.get`` per hook site
(:func:`repro.obs.trace.explaining`), and explain on reads only
in-memory integers and the per-thread counters — it never touches a
page, a metric or an RNG of its own, so results and every
deterministic cost counter stay bit-identical
(``tests/test_explain_neutrality.py`` pins this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.obs import trace
from repro.obs.summary import phase_summary

__all__ = [
    "IndexProfile",
    "PLAN_FORMAT",
    "QUERY_PLAN_SCHEMA",
    "QueryPlan",
    "build_plan",
    "close_stage",
    "explained",
    "format_plan",
    "load_plan",
    "plan_header",
    "snapshot",
    "stage",
    "validate_plan",
]

#: format marker of the plan artifact (bump on breaking changes).
PLAN_FORMAT = "repro-plan/1"

#: timeline entries kept per plan; further snapshots are counted in
#: ``timeline_dropped``, never silently ignored.
TIMELINE_CAPACITY = 10_000

#: categories of the explain-only instants.
FUNNEL = "funnel"
TIMELINE = "timeline"

T = TypeVar("T")


class IndexProfile:
    """Per-level index visit counters of one explained execution.

    Instrumented index code reaches the profile of the ambient explain
    scope via :func:`repro.obs.trace.explaining` (``None`` when explain
    is off — the only cost of the disabled path).  All methods read
    in-memory integers only; the single method that touches storage,
    :meth:`get_page`, performs exactly the page fetch the caller would
    have performed anyway and merely attributes its I/O delta to an
    index level.
    """

    __slots__ = ("_levels", "_ops")

    def __init__(self) -> None:
        self._levels: Dict[int, Dict[str, int]] = {}
        self._ops: Dict[str, int] = {}

    def _level_row(self, level: int) -> Dict[str, int]:
        row = self._levels.get(level)
        if row is None:
            row = self._levels[level] = {
                "level": int(level),
                "nodes_visited": 0,
                "entries_seen": 0,
                "parent_distance_prunes": 0,
                "covering_radius_prunes": 0,
                "hyper_ring_prunes": 0,
                "deferred_refinements": 0,
                "refinements": 0,
                "distance_batches": 0,
                "batched_distances": 0,
                "page_faults": 0,
                "buffer_hits": 0,
            }
        return row

    def node_visit(
        self,
        op: str,
        level: int,
        *,
        entries: int = 0,
        parent_distance_prunes: int = 0,
        covering_radius_prunes: int = 0,
        hyper_ring_prunes: int = 0,
        deferred_refinements: int = 0,
        batches: int = 0,
        batched_distances: int = 0,
    ) -> None:
        """Record one expanded index node at ``level`` under ``op``.

        ``parent_distance_prunes`` counts entries eliminated by the
        stored-parent-distance lower bound — each hit is exactly one
        distance computation avoided.  ``hyper_ring_prunes`` counts
        entries eliminated (or their heap keys tightened) by a
        backend's extra filter bounds — the PM-tree's pivot
        hyper-rings.  ``deferred_refinements`` counts entries enqueued
        on a lower bound instead of being measured immediately
        (best-first laziness: the ones never refined are avoided
        outright).
        """
        row = self._level_row(level)
        row["nodes_visited"] += 1
        row["entries_seen"] += int(entries)
        row["parent_distance_prunes"] += int(parent_distance_prunes)
        row["covering_radius_prunes"] += int(covering_radius_prunes)
        row["hyper_ring_prunes"] += int(hyper_ring_prunes)
        row["deferred_refinements"] += int(deferred_refinements)
        row["distance_batches"] += int(batches)
        row["batched_distances"] += int(batched_distances)
        self._ops[op] = self._ops.get(op, 0) + 1

    def hyper_ring_prune(self, op: str, level: int, count: int = 1) -> None:
        """Backend filter bounds pruned or tightened ``count`` entries."""
        self._level_row(level)["hyper_ring_prunes"] += int(count)
        self._ops.setdefault(op, 0)

    def refinement(self, level: int) -> None:
        """A deferred entry was refined after all (one paid distance)."""
        self._level_row(level)["refinements"] += 1

    def node_pruned(
        self,
        op: str,
        level: int,
        *,
        covering_radius: int = 0,
        parent_distance: int = 0,
    ) -> None:
        """A whole node was pruned without being expanded at ``level``."""
        row = self._level_row(level)
        row["covering_radius_prunes"] += int(covering_radius)
        row["parent_distance_prunes"] += int(parent_distance)
        self._ops.setdefault(op, 0)

    def get_page(self, buffer: Any, page_id: int, level: int) -> Any:
        """Fetch a page through ``buffer``, charging its I/O to ``level``.

        Performs exactly the ``buffer.get`` the caller would have
        performed — same page, same order — so the global counters move
        identically with explain on or off; only the attribution to the
        level profile is added.
        """
        stats = buffer.local_stats()
        faults0 = stats.page_faults
        hits0 = stats.buffer_hits
        page = buffer.get(page_id)
        row = self._level_row(level)
        row["page_faults"] += stats.page_faults - faults0
        row["buffer_hits"] += stats.buffer_hits - hits0
        return page

    def as_dict(self, backend: Optional[str] = None) -> Dict[str, Any]:
        """The plan's ``index_profile`` section."""
        levels = [self._levels[lvl] for lvl in sorted(self._levels)]
        profile: Dict[str, Any] = {"levels": levels, "ops": dict(self._ops)}
        if backend is not None:
            profile["backend"] = backend
        return profile


# ----------------------------------------------------------------------
# funnel and timeline hooks (call only under an explain scope)
# ----------------------------------------------------------------------
def _stage_args(
    entering: int, survivors: int, discards: Mapping[str, int], **extra: Any
) -> Dict[str, Any]:
    args: Dict[str, Any] = {
        "entering": int(entering),
        "survivors": int(survivors),
        "discards": {
            str(rule): int(count)
            for rule, count in discards.items()
            if int(count) != 0
        },
    }
    args.update((key, value) for key, value in extra.items() if value is not None)
    return args


def close_stage(
    span_obj: Any,
    entering: int,
    survivors: int,
    discards: Mapping[str, int],
    *,
    round: Optional[int] = None,
    note: Optional[str] = None,
) -> None:
    """Make the open span ``span_obj`` a funnel stage of the same name.

    The stage's ``costs`` are the span's own cost delta — what the
    stage *paid* (its discards are what it *avoided* downstream).
    """
    span_obj.args.update(
        _stage_args(entering, survivors, discards, round=round, note=note)
    )


def stage(
    phase: str,
    entering: int,
    survivors: int,
    discards: Mapping[str, int],
    *,
    note: Optional[str] = None,
) -> None:
    """Record a funnel stage computed after the fact (an instant)."""
    trace.event(phase, FUNNEL, _stage_args(entering, survivors, discards, note=note))


def snapshot(phase: str, **fields: Any) -> None:
    """Record one heap/threshold timeline entry (an instant)."""
    trace.event(phase, TIMELINE, fields)


# ----------------------------------------------------------------------
# the explain run
# ----------------------------------------------------------------------
def plan_header(
    algorithm: str,
    query_ids: Sequence[int],
    k: int,
    n: int,
    stats: Any = None,
) -> Dict[str, Any]:
    """What an explained body reports about itself: the plan's
    identity and its ``QueryStats`` as the flat ``counters`` mapping
    (empty when the body measures no stats)."""
    return {
        "algorithm": algorithm,
        "query_ids": [int(q) for q in query_ids],
        "k": int(k),
        "n": int(n),
        "counters": stats_counters(stats) if stats is not None else {},
    }


def explained(
    name: str,
    category: str,
    probe: Optional[trace.CostProbe],
    body: Callable[[], Tuple[T, Dict[str, Any]]],
    *,
    backend: Optional[str] = None,
) -> Tuple[T, "QueryPlan"]:
    """Run ``body`` as one explain scope; return ``(value, plan)``.

    ``body()`` returns ``(value, header)`` with ``header`` from
    :func:`plan_header`.  The root span ``name`` is a child of the
    ambient trace, or the root of a private tracer when none is
    ambient; ``probe`` gives it (and every span below) exact cost
    deltas.  The root's subtree is captured through a tracer listener,
    so spans the tracer's capacity bound drops still count.  The
    header, the index profile (tagged with ``backend``) and the
    timeline overflow are attached to the root span as args, and the
    plan is :func:`build_plan` of the captured subtree.
    """
    profile = IndexProfile()
    tracer, root_context = trace.span_or_root(name, category, probe, profile)
    captured: List[trace.Span] = []
    timeline_kept = timeline_dropped = 0

    with root_context as root:

        def keep(span_obj: trace.Span) -> None:
            nonlocal timeline_kept, timeline_dropped
            if span_obj.trace_id != root.trace_id:
                return
            if span_obj.category == TIMELINE and span_obj.phase == "i":
                if timeline_kept >= TIMELINE_CAPACITY:
                    timeline_dropped += 1
                    return
                timeline_kept += 1
            captured.append(span_obj)

        unsubscribe = tracer.add_listener(keep)
        try:
            value, header = body()
        finally:
            unsubscribe()
        root.args.update(header)
        root.args["index_profile"] = profile.as_dict(backend)
        root.args["timeline_dropped"] = timeline_dropped
    captured.append(root)
    spans = _subtree([span_obj.as_dict() for span_obj in captured], root.span_id)
    return value, build_plan(spans)


# ----------------------------------------------------------------------
# the plan artifact
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryPlan:
    """The JSON-serializable EXPLAIN artifact for one execution."""

    algorithm: str
    query_ids: Tuple[int, ...]
    k: int
    n: int
    counters: Dict[str, Any]
    phases: List[Dict[str, Any]] = field(default_factory=list)
    funnel: List[Dict[str, Any]] = field(default_factory=list)
    index_profile: Dict[str, Any] = field(
        default_factory=lambda: {"levels": [], "ops": {}}
    )
    timeline: List[Dict[str, Any]] = field(default_factory=list)
    timeline_dropped: int = 0
    discard_rules: Dict[str, int] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.query_ids)

    def as_dict(self) -> Dict[str, Any]:
        """The canonical plan document (what the schema validates)."""
        return {
            "format": PLAN_FORMAT,
            "algorithm": self.algorithm,
            "query_ids": list(self.query_ids),
            "k": self.k,
            "m": self.m,
            "n": self.n,
            "counters": dict(self.counters),
            "phases": list(self.phases),
            "funnel": list(self.funnel),
            "index_profile": dict(self.index_profile),
            "timeline": list(self.timeline),
            "timeline_dropped": self.timeline_dropped,
            "discard_rules": dict(self.discard_rules),
            "spans": list(self.spans),
        }

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def summary(self) -> Dict[str, Any]:
        """A small plain-type digest (for the service snapshot)."""
        return {
            "algorithm": self.algorithm,
            "k": self.k,
            "m": self.m,
            "n": self.n,
            "distance_computations": self.counters.get(
                "distance_computations", 0
            ),
            "page_faults": self.counters.get("page_faults", 0),
            "phases": len(self.phases),
            "funnel_stages": len(self.funnel),
            "discard_rules": dict(self.discard_rules),
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "QueryPlan":
        validate_plan(document)
        return cls(
            algorithm=document["algorithm"],
            query_ids=tuple(document["query_ids"]),
            k=document["k"],
            n=document["n"],
            counters=dict(document["counters"]),
            phases=list(document["phases"]),
            funnel=list(document["funnel"]),
            index_profile=dict(document["index_profile"]),
            timeline=list(document["timeline"]),
            timeline_dropped=int(document.get("timeline_dropped", 0)),
            discard_rules=dict(document.get("discard_rules", {})),
            spans=list(document["spans"]),
        )


def _subtree(
    spans: Sequence[Dict[str, Any]], root_id: int
) -> List[Dict[str, Any]]:
    """The spans reachable from ``root_id`` by parent links, in order.

    When the explain ran under an ambient (shared) tracer, the tracer
    may hold spans from other concurrent requests; the parent chain
    isolates exactly this execution's subtree.
    """
    children: Dict[int, List[int]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            children.setdefault(parent, []).append(span["span_id"])
    keep = {root_id}
    frontier = [root_id]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            if child not in keep:
                keep.add(child)
                frontier.append(child)
    return [s for s in spans if s["span_id"] in keep]


def stats_counters(stats: Any) -> Dict[str, Any]:
    """``QueryStats`` as the plan's flat ``counters`` mapping."""
    return {
        "cpu_seconds": stats.cpu_seconds,
        "io_seconds": stats.io_seconds,
        "page_faults": stats.io.page_faults,
        "buffer_hits": stats.io.buffer_hits,
        "logical_reads": stats.io.logical_reads,
        "distance_computations": stats.distance_computations,
        "distance_batches": stats.distance_batches,
        "exact_score_computations": stats.exact_score_computations,
        "objects_retrieved": stats.objects_retrieved,
        "objects_pruned": stats.objects_pruned,
        "results_reported": stats.results_reported,
    }


def _funnel_stage(span: Mapping[str, Any]) -> Dict[str, Any]:
    """One funnel stage from a span or instant carrying stage args."""
    args = span["args"]
    record: Dict[str, Any] = {"phase": span["name"]}
    for key in ("entering", "round", "survivors", "discards", "note"):
        if key in args:
            record[key] = args[key]
    if span.get("costs") is not None:
        record["costs"] = dict(span["costs"])
    return record


def build_plan(spans: Sequence[Dict[str, Any]]) -> QueryPlan:
    """The plan of one captured explain subtree (native span dicts).

    A pure function of the spans: the root (the one span whose parent
    is outside the set) carries the header, the index profile and the
    timeline overflow that :func:`explained` attached; stage args and
    instants give the funnel and the timeline, in finish order.  Phase
    rows are *self*-attributed via
    :func:`repro.obs.summary.phase_summary`, so their per-phase
    distance deltas sum exactly to the root's
    ``counters["distance_computations"]``; they are listed by name, so
    the same query on the same data gives the same document.
    """
    span_list = list(spans)
    ids = {span["span_id"] for span in span_list}
    root = next(s for s in span_list if s.get("parent_id") not in ids)
    header = root["args"]
    phases = [
        {
            "name": row.name,
            "count": row.count,
            "wall_seconds": row.wall_seconds,
            "self_seconds": row.self_seconds,
            "self_costs": dict(row.self_costs),
        }
        for row in sorted(phase_summary(span_list), key=lambda r: r.name)
    ]
    funnel = [_funnel_stage(s) for s in span_list if "survivors" in s["args"]]
    discard_rules: Dict[str, int] = {}
    for record in funnel:
        for rule, count in record["discards"].items():
            discard_rules[rule] = discard_rules.get(rule, 0) + count
    timeline = [
        {"phase": s["name"], **s["args"]}
        for s in span_list
        if s["ph"] == "i" and s["cat"] == TIMELINE
    ]
    return QueryPlan(
        algorithm=header["algorithm"],
        query_ids=tuple(header["query_ids"]),
        k=header["k"],
        n=header["n"],
        counters=dict(header["counters"]),
        phases=phases,
        funnel=funnel,
        index_profile=header["index_profile"],
        timeline=timeline,
        timeline_dropped=header["timeline_dropped"],
        discard_rules=discard_rules,
        spans=span_list,
    )


# ----------------------------------------------------------------------
# schema + dependency-free validation
# ----------------------------------------------------------------------
QUERY_PLAN_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro explain plan",
    "type": "object",
    "required": [
        "format",
        "algorithm",
        "query_ids",
        "k",
        "m",
        "n",
        "counters",
        "phases",
        "funnel",
        "index_profile",
        "timeline",
        "spans",
    ],
    "properties": {
        "format": {"const": PLAN_FORMAT},
        "algorithm": {"type": "string", "minLength": 1},
        "query_ids": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "k": {"type": "integer", "minimum": 0},
        "m": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 0},
        "counters": {"type": "object"},
        "phases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "count", "self_seconds", "self_costs"],
                "properties": {
                    "name": {"type": "string"},
                    "count": {"type": "integer", "minimum": 1},
                    "wall_seconds": {"type": "number", "minimum": 0},
                    "self_seconds": {"type": "number", "minimum": 0},
                    "self_costs": {"type": "object"},
                },
            },
        },
        "funnel": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["phase", "entering", "survivors", "discards"],
                "properties": {
                    "phase": {"type": "string"},
                    "entering": {"type": "integer", "minimum": 0},
                    "survivors": {"type": "integer", "minimum": 0},
                    "discards": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "integer",
                            "minimum": 0,
                        },
                    },
                },
            },
        },
        "index_profile": {
            "type": "object",
            "required": ["levels", "ops"],
            "properties": {
                "backend": {"type": "string", "minLength": 1},
                "levels": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["level", "nodes_visited"],
                    },
                },
                "ops": {
                    "type": "object",
                    "additionalProperties": {"type": "integer"},
                },
            },
        },
        "timeline": {"type": "array", "items": {"type": "object"}},
        "timeline_dropped": {"type": "integer", "minimum": 0},
        "discard_rules": {
            "type": "object",
            "additionalProperties": {"type": "integer"},
        },
        "spans": {"type": "array", "items": {"type": "object"}},
    },
}


def validate_plan(document: Any) -> None:
    """Validate a plan document; raise ``ValueError`` on violations.

    Dependency-free (mirrors :data:`QUERY_PLAN_SCHEMA`, which remains
    usable with a full JSON-Schema validator when one is available).
    Beyond shape, this also enforces the funnel conservation law:
    ``entering == survivors + sum(discards.values())`` for every stage.
    """
    if not isinstance(document, dict):
        raise ValueError("plan must be a JSON object")
    if document.get("format") != PLAN_FORMAT:
        raise ValueError(
            f"not a plan document: format marker {document.get('format')!r}"
            f" != {PLAN_FORMAT!r}"
        )
    for key in QUERY_PLAN_SCHEMA["required"]:
        if key not in document:
            raise ValueError(f"plan missing required key {key!r}")
    if not isinstance(document["algorithm"], str) or not document["algorithm"]:
        raise ValueError("plan algorithm must be a non-empty string")
    ids = document["query_ids"]
    if not isinstance(ids, list) or not ids or not all(
        isinstance(q, int) and q >= 0 for q in ids
    ):
        raise ValueError("plan query_ids must be a non-empty list of ints")
    for key in ("k", "m", "n"):
        if not isinstance(document[key], int) or document[key] < 0:
            raise ValueError(f"plan {key} must be a non-negative integer")
    if document["m"] != len(ids):
        raise ValueError("plan m must equal len(query_ids)")
    if not isinstance(document["counters"], dict):
        raise ValueError("plan counters must be an object")
    phases = document["phases"]
    if not isinstance(phases, list):
        raise ValueError("plan phases must be an array")
    for row in phases:
        if not isinstance(row, dict) or "name" not in row:
            raise ValueError("each phase row must be an object with a name")
        if not isinstance(row.get("self_costs"), dict):
            raise ValueError(
                f"phase {row.get('name')!r} missing self_costs object"
            )
    funnel = document["funnel"]
    if not isinstance(funnel, list):
        raise ValueError("plan funnel must be an array")
    for stage in funnel:
        if not isinstance(stage, dict):
            raise ValueError("each funnel stage must be an object")
        for key in ("phase", "entering", "survivors", "discards"):
            if key not in stage:
                raise ValueError(f"funnel stage missing {key!r}")
        entering = stage["entering"]
        survivors = stage["survivors"]
        discards = stage["discards"]
        if not isinstance(discards, dict) or not all(
            isinstance(v, int) and v >= 0 for v in discards.values()
        ):
            raise ValueError(
                f"funnel stage {stage['phase']!r}: discards must map rules"
                " to non-negative integers"
            )
        if entering != survivors + sum(discards.values()):
            raise ValueError(
                f"funnel stage {stage['phase']!r} violates conservation:"
                f" entering={entering} != survivors={survivors}"
                f" + discards={sum(discards.values())}"
            )
    profile = document["index_profile"]
    if (
        not isinstance(profile, dict)
        or not isinstance(profile.get("levels"), list)
        or not isinstance(profile.get("ops"), dict)
    ):
        raise ValueError(
            "plan index_profile must be {levels: [...], ops: {...}}"
        )
    backend = profile.get("backend")
    if backend is not None and (
        not isinstance(backend, str) or not backend
    ):
        raise ValueError(
            "plan index_profile.backend must be a non-empty string"
        )
    for row in profile["levels"]:
        if not isinstance(row, dict) or "level" not in row:
            raise ValueError("each index_profile level row needs a level")
    if not isinstance(document["timeline"], list):
        raise ValueError("plan timeline must be an array")
    if not isinstance(document["spans"], list):
        raise ValueError("plan spans must be an array")


def load_plan(path: str) -> Dict[str, Any]:
    """Read and validate a plan file; ``ValueError`` on bad content."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: empty or corrupt plan file (not valid JSON: {exc})"
            ) from exc
    validate_plan(document)
    return document


# ----------------------------------------------------------------------
# ASCII rendering (the `repro-trace explain` output)
# ----------------------------------------------------------------------
def format_plan(document: Mapping[str, Any]) -> str:
    """Render a plan document as ASCII tables."""
    lines: List[str] = []
    counters = document.get("counters", {})
    lines.append(
        f"QueryPlan ({document.get('format')})  "
        f"algorithm={document['algorithm']}  "
        f"Q={tuple(document['query_ids'])}  "
        f"k={document['k']}  m={document['m']}  n={document['n']}"
    )
    lines.append(
        "counters: "
        f"cpu={counters.get('cpu_seconds', 0.0):.4f}s  "
        f"io={counters.get('io_seconds', 0.0):.4f}s "
        f"(faults={counters.get('page_faults', 0)}, "
        f"hits={counters.get('buffer_hits', 0)})  "
        f"dist={counters.get('distance_computations', 0)}  "
        f"exact={counters.get('exact_score_computations', 0)}  "
        f"retrieved={counters.get('objects_retrieved', 0)}  "
        f"pruned={counters.get('objects_pruned', 0)}"
    )

    phases = document.get("phases", [])
    if phases:
        lines.append("")
        lines.append("phases (self-attributed):")
        header = (
            f"  {'name':<24} {'count':>6} {'self ms':>9} "
            f"{'dist':>8} {'exact':>7} {'faults':>7}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in phases:
            costs = row.get("self_costs", {})
            lines.append(
                f"  {row['name']:<24} {row.get('count', 0):>6} "
                f"{row.get('self_seconds', 0.0) * 1e3:>9.3f} "
                f"{costs.get('distance_computations', 0):>8} "
                f"{costs.get('exact_score_computations', 0):>7} "
                f"{costs.get('page_faults', 0):>7}"
            )

    funnel = document.get("funnel", [])
    if funnel:
        lines.append("")
        lines.append("pruning funnel:")
        header = (
            f"  {'phase':<24} {'round':>5} {'enter':>8} "
            f"{'keep':>8} {'dist':>8}  discards"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for stage in funnel:
            costs = stage.get("costs", {})
            discards = stage.get("discards", {})
            discard_text = (
                "; ".join(
                    f"{rule}: {count}"
                    for rule, count in sorted(discards.items())
                )
                or "-"
            )
            round_text = (
                str(stage["round"]) if stage.get("round") is not None else "-"
            )
            dist = costs.get("distance_computations")
            lines.append(
                f"  {stage['phase']:<24} {round_text:>5} "
                f"{stage['entering']:>8} {stage['survivors']:>8} "
                f"{dist if dist is not None else '-':>8}  {discard_text}"
            )

    profile = document.get("index_profile", {})
    levels = profile.get("levels", [])
    if levels:
        lines.append("")
        backend = profile.get("backend")
        where = (
            f"backend={backend}, per level"
            if backend
            else "per index level"
        )
        lines.append(f"index visit profile ({where}):")
        header = (
            f"  {'level':>5} {'nodes':>6} {'entries':>8} "
            f"{'pd-prune':>9} {'cr-prune':>9} {'hr-prune':>9} "
            f"{'deferred':>9} "
            f"{'refined':>8} {'batched':>8} {'faults':>7} {'hits':>6}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in levels:
            lines.append(
                f"  {row['level']:>5} {row.get('nodes_visited', 0):>6} "
                f"{row.get('entries_seen', 0):>8} "
                f"{row.get('parent_distance_prunes', 0):>9} "
                f"{row.get('covering_radius_prunes', 0):>9} "
                f"{row.get('hyper_ring_prunes', 0):>9} "
                f"{row.get('deferred_refinements', 0):>9} "
                f"{row.get('refinements', 0):>8} "
                f"{row.get('batched_distances', 0):>8} "
                f"{row.get('page_faults', 0):>7} "
                f"{row.get('buffer_hits', 0):>6}"
            )
        ops = profile.get("ops", {})
        if ops:
            lines.append(
                "  ops: "
                + "  ".join(
                    f"{op}={count}" for op, count in sorted(ops.items())
                )
            )

    rules = document.get("discard_rules", {})
    if rules:
        lines.append("")
        lines.append("discards by rule:")
        for rule, count in sorted(rules.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {rule:<44} {count:>8}")

    timeline = document.get("timeline", [])
    if timeline:
        lines.append("")
        shown = timeline[-5:]
        dropped = document.get("timeline_dropped", 0)
        suffix = f" ({dropped} dropped at capacity)" if dropped else ""
        lines.append(
            f"timeline: {len(timeline)} snapshot(s){suffix}; last "
            f"{len(shown)}:"
        )
        for entry in shown:
            detail = "  ".join(
                f"{key}={entry[key]}" for key in entry if key != "phase"
            )
            lines.append(f"  [{entry.get('phase')}] {detail}")

    return "\n".join(lines)
