"""Typed, JSON-round-trippable progress events of the verification service.

Every observable stage of a verification job — queued, started, property
transitions, engine subproblems crossing wave boundaries, trap/siphon
refinements, backend selection, cache hits, completion — is one
:class:`ProgressEvent` variant.  Events are frozen dataclasses whose fields
are JSON-clean by construction, so ``event_from_dict(event.to_dict())``
compares equal to the original and a JSON hop (``json.loads(json.dumps(...))``)
is lossless too; that is what lets the ``repro-verify serve`` daemon stream
them as JSON lines and lets reports embed the full trail in their statistics.

This module deliberately imports nothing from the engine or the API layer:
the engine scheduler constructs events at wave boundaries, the service
routes them, and neither direction creates an import cycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

#: Version tag of the event wire format; bumped on schema changes.
EVENT_SCHEMA = "repro-progress-event/1"


@dataclass(frozen=True)
class ProgressEvent:
    """Base of all progress events.

    ``seq`` (the per-job sequence number) and ``timestamp`` (Unix seconds)
    are stamped by the job's event log when the event is recorded; events
    constructed by emitters carry the defaults until then.
    """

    job_id: str
    seq: int = 0
    timestamp: float = 0.0

    #: Wire-format tag of the variant; overridden by every subclass.
    TYPE = "?"

    def to_dict(self) -> dict:
        """Lossless plain-dictionary form (JSON-clean)."""
        payload = {"event": self.TYPE}
        for f in dataclasses.fields(self):
            payload[f.name] = getattr(self, f.name)
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "ProgressEvent":
        """Inverse of :meth:`to_dict` for this variant (tag is ignored)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known - {"event"}
        if unknown:
            raise ValueError(f"unknown {cls.TYPE} event fields: {sorted(unknown)}")
        return cls(**{key: value for key, value in data.items() if key != "event"})

    def stamped(self, seq: int, timestamp: float) -> "ProgressEvent":
        """A copy carrying its position in the job's event log."""
        return dataclasses.replace(self, seq=seq, timestamp=timestamp)


@dataclass(frozen=True)
class JobQueued(ProgressEvent):
    """A job entered the service's priority queue."""

    protocol_name: str = ""
    properties: list = field(default_factory=list)
    priority: int = 0
    kind: str = "check"  # "check" or "batch"

    TYPE = "job_queued"


@dataclass(frozen=True)
class JobStarted(ProgressEvent):
    """A dispatcher picked the job up and began verifying."""

    TYPE = "job_started"


@dataclass(frozen=True)
class PropertyStarted(ProgressEvent):
    """One requested property check began."""

    property: str = ""
    protocol_name: str = ""

    TYPE = "property_started"


@dataclass(frozen=True)
class PropertyFinished(ProgressEvent):
    """One requested property check produced a verdict."""

    property: str = ""
    protocol_name: str = ""
    verdict: str = ""

    TYPE = "property_finished"


@dataclass(frozen=True)
class SubproblemDispatched(ProgressEvent):
    """The engine handed one subproblem envelope to the worker pool."""

    kind: str = ""
    index: int = 0
    wave: int = 0

    TYPE = "subproblem_dispatched"


@dataclass(frozen=True)
class SubproblemCompleted(ProgressEvent):
    """A worker (or the inline path) returned a subproblem result."""

    kind: str = ""
    index: int = 0
    verdict: str = ""
    time_seconds: float = 0.0

    TYPE = "subproblem_completed"


@dataclass(frozen=True)
class RefinementFound(ProgressEvent):
    """The CEGAR loop learned a new trap or siphon constraint."""

    refinement: str = ""  # "trap" or "siphon"
    states: list = field(default_factory=list)  # sorted state reprs
    iteration: int = 0

    TYPE = "refinement_found"


@dataclass(frozen=True)
class BackendSelected(ProgressEvent):
    """A solver backend was selected for (part of) the job."""

    backend: str = ""
    scope: str = ""  # what the backend is serving, e.g. a property name

    TYPE = "backend_selected"


@dataclass(frozen=True)
class BackendDegraded(ProgressEvent):
    """A solver backend crashed mid-check and was demoted for the session.

    Work continues on ``fallback``, always ``smtlite``: other backends fall
    back on it, and a demoted ``smtlite`` (``fallback == backend``) goes on
    with the exact theory solver instead of the scipy one.  New solver
    instances start on the fallback until
    :func:`~repro.constraints.backends.reset_backend_health`.
    """

    backend: str = ""
    fallback: str = ""
    reason: str = ""

    TYPE = "backend_degraded"


@dataclass(frozen=True)
class SubproblemRetried(ProgressEvent):
    """A lost subproblem (worker death, deadline) was resubmitted.

    ``attempt`` is the upcoming attempt number (2 for the first retry);
    ``delay_seconds`` is the backoff quarantine that preceded resubmission.
    """

    kind: str = ""
    index: int = 0
    attempt: int = 0
    delay_seconds: float = 0.0
    reason: str = ""

    TYPE = "subproblem_retried"


@dataclass(frozen=True)
class JobRecovered(ProgressEvent):
    """A journalled job was re-enqueued after a service restart.

    ``had_started`` distinguishes jobs interrupted mid-run from jobs that
    never left the queue before the previous process died.
    """

    had_started: bool = False

    TYPE = "job_recovered"


@dataclass(frozen=True)
class CacheHit(ProgressEvent):
    """A verdict was served from the content-addressed result cache."""

    protocol_name: str = ""
    protocol_hash: str = ""

    TYPE = "cache_hit"


@dataclass(frozen=True)
class JobFinished(ProgressEvent):
    """The job left the service (successfully, cancelled, or in error).

    ``outcome`` is ``"done"`` (a result exists — the verdict itself may
    still be a failure, see ``ok``), ``"cancelled"`` or ``"error"``.
    """

    outcome: str = "done"
    ok: bool | None = None
    error: str = ""
    time_seconds: float = 0.0

    TYPE = "job_finished"


#: Every concrete event variant, by wire tag.
EVENT_TYPES: dict[str, type[ProgressEvent]] = {
    variant.TYPE: variant
    for variant in (
        JobQueued,
        JobStarted,
        PropertyStarted,
        PropertyFinished,
        SubproblemDispatched,
        SubproblemCompleted,
        SubproblemRetried,
        RefinementFound,
        BackendSelected,
        BackendDegraded,
        CacheHit,
        JobRecovered,
        JobFinished,
    )
}


def event_from_dict(data: dict) -> ProgressEvent:
    """Decode any event dictionary produced by :meth:`ProgressEvent.to_dict`."""
    tag = data.get("event")
    variant = EVENT_TYPES.get(tag)
    if variant is None:
        raise ValueError(f"unknown progress event type {tag!r}; known: {sorted(EVENT_TYPES)}")
    return variant.from_dict(data)


def describe_event(event: ProgressEvent) -> str:
    """One human-readable line per event (the CLI's ``--progress`` rendering)."""
    prefix = f"[{event.job_id}]"
    if isinstance(event, JobQueued):
        return f"{prefix} queued {event.kind} of {event.protocol_name or '?'} (priority {event.priority})"
    if isinstance(event, JobStarted):
        return f"{prefix} started"
    if isinstance(event, PropertyStarted):
        return f"{prefix} checking {event.property} on {event.protocol_name}"
    if isinstance(event, PropertyFinished):
        return f"{prefix} {event.property}: {event.verdict}"
    if isinstance(event, SubproblemDispatched):
        return f"{prefix} dispatched {event.kind}[{event.index}] (wave {event.wave})"
    if isinstance(event, SubproblemCompleted):
        return f"{prefix} completed {event.kind}[{event.index}]: {event.verdict}"
    if isinstance(event, SubproblemRetried):
        return (
            f"{prefix} retrying {event.kind}[{event.index}] "
            f"(attempt {event.attempt}): {event.reason}"
        )
    if isinstance(event, RefinementFound):
        return f"{prefix} refinement: {event.refinement} over {{{', '.join(event.states)}}}"
    if isinstance(event, BackendSelected):
        return f"{prefix} backend {event.backend} ({event.scope})"
    if isinstance(event, BackendDegraded):
        target = (
            "the exact theory solver" if event.fallback == event.backend else event.fallback
        )
        return f"{prefix} backend {event.backend} degraded to {target}: {event.reason}"
    if isinstance(event, CacheHit):
        return f"{prefix} cache hit for {event.protocol_name}"
    if isinstance(event, JobRecovered):
        detail = "interrupted mid-run" if event.had_started else "still queued"
        return f"{prefix} recovered from journal ({detail})"
    if isinstance(event, JobFinished):
        suffix = f" in {event.time_seconds:.3f}s" if event.time_seconds else ""
        return f"{prefix} finished: {event.outcome}{suffix}"
    return f"{prefix} {event.TYPE}"  # pragma: no cover - future variants
