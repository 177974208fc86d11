"""The job record: one check or batch with its status, result and event log.

A job is one unit of verification work — a single-protocol check or a whole
batch.  :meth:`repro.api.verifier.Verifier.run_job` runs it, on the calling
thread for ``Verifier.check``/``check_many`` and on a dispatcher thread for
a :class:`~repro.service.service.VerificationService` job; the service's
public :class:`~repro.service.jobs.JobHandle` wraps the same record.

The :class:`Job` record owns the synchronised state (status, result, error,
the event log and its subscribers).  Event delivery guarantees: events are
recorded in emission order, stamped with a per-job sequence number and a
timestamp; subscribers registered after events were already emitted receive
the backlog first (no gaps, no duplicates), and the iterator API observes
exactly the same sequence.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterator
from enum import Enum

from repro.service.events import JobFinished, JobQueued, ProgressEvent


class JobStatus(str, Enum):
    """Lifecycle of a verification job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return self.value


#: The wire values of the terminal statuses: a job in one of them is final.
TERMINAL_STATUSES = frozenset(status.value for status in JobStatus if status.finished)

#: The ``job_finished`` outcome of each terminal status.
_OUTCOMES = {JobStatus.DONE: "done", JobStatus.FAILED: "error", JobStatus.CANCELLED: "cancelled"}


class _Subscriber:
    """One registered event callback with its delivery cursor."""

    __slots__ = ("callback", "position", "lock")

    def __init__(self, callback: Callable[["ProgressEvent"], None]):
        self.callback = callback
        self.position = 0
        self.lock = threading.Lock()


class Job:
    """Internal, thread-safe record of one job.

    ``payload`` holds what :meth:`~repro.api.verifier.Verifier.run_job`
    needs to run the job (see :func:`check_job` and :func:`batch_job`);
    ``status``/``result``/``error`` change only through the methods here, so
    every transition happens under the condition lock and wakes blocked
    waiters and event iterators.
    """

    def __init__(
        self,
        job_id: str,
        kind: str,
        payload: dict,
        priority: int = 0,
        protocol_name: str = "",
        properties: tuple[str, ...] = (),
    ):
        self.id = job_id
        self.kind = kind
        self.payload = payload
        self.priority = priority
        self.protocol_name = protocol_name
        self.properties = properties
        self.status = JobStatus.QUEUED
        self.result: object | None = None
        self.error: BaseException | None = None
        self.submitted_at = time.time()
        self._condition = threading.Condition()
        self._cancel_requested = False
        self._events: list[ProgressEvent] = []
        self._subscribers: list[_Subscriber] = []
        self.subscriber_errors = 0

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def record_event(self, event: ProgressEvent) -> ProgressEvent:
        """Stamp, append and fan out one event; returns the stamped event."""
        with self._condition:
            stamped = event.stamped(seq=len(self._events), timestamp=time.time())
            self._events.append(stamped)
            subscribers = list(self._subscribers)
            self._condition.notify_all()
        for subscriber in subscribers:
            self._drain(subscriber)
        return stamped

    def subscribe(self, callback: Callable[[ProgressEvent], None]) -> None:
        """Register a callback; the backlog is replayed first (no gaps).

        Delivery is per-subscriber serialised through a position cursor, so
        a subscriber registered mid-run sees seq 0, 1, 2, ... in order even
        while the job keeps emitting concurrently — never a fresh event
        before (or interleaved with) its backlog.
        """
        subscriber = _Subscriber(callback)
        with self._condition:
            self._subscribers.append(subscriber)
        self._drain(subscriber)

    def _drain(self, subscriber: "_Subscriber") -> None:
        """Deliver every not-yet-delivered event to one subscriber, in order.

        ``subscriber.lock`` serialises concurrent drains (a subscribe-time
        backlog replay racing the running job's fan-out): whoever holds the
        lock delivers, the other drains whatever is left afterwards.  The
        callback runs outside the job condition, so *non-blocking* calls
        back into the job or the service are safe; it usually runs on the
        thread driving this very job, so a callback must never block on the
        job's own completion (``wait()``, exhausting ``events()``) — that
        would deadlock the job.
        """
        while True:
            with subscriber.lock:
                with self._condition:
                    if subscriber.position >= len(self._events):
                        return
                    event = self._events[subscriber.position]
                    subscriber.position += 1
                # A broken subscriber must not take the job down; the error
                # count is surfaced in the service statistics.
                try:
                    subscriber.callback(event)
                except Exception:
                    self.subscriber_errors += 1

    def events_snapshot(self) -> list[ProgressEvent]:
        with self._condition:
            return list(self._events)

    def iter_events(self, start: int = 0, timeout: float | None = None) -> Iterator[ProgressEvent]:
        """Yield events from ``start`` onwards until the job has finished.

        The iterator blocks for new events while the job runs and ends once
        the job is finished and the log is drained.  ``timeout`` bounds each
        individual wait; when it expires the iterator stops early.
        """
        position = start
        while True:
            with self._condition:
                while position >= len(self._events) and not self.status.finished:
                    if not self._condition.wait(timeout=timeout):
                        return
                batch = self._events[position:]
                finished = self.status.finished
            for event in batch:
                yield event
            position += len(batch)
            if finished and position >= len(self.events_snapshot()):
                return

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------

    def mark_running(self) -> bool:
        """QUEUED -> RUNNING; False if the job was cancelled while queued."""
        with self._condition:
            if self._cancel_requested or self.status is not JobStatus.QUEUED:
                return False
            self.status = JobStatus.RUNNING
            return True

    def finish(
        self,
        status: JobStatus,
        result=None,
        error: BaseException | None = None,
        *,
        elapsed: float = 0.0,
        error_text: str | None = None,
    ) -> None:
        """Atomically finish the job, recording its ``job_finished`` event.

        The terminal event is appended under the same lock that flips the
        status, and the result's statistics are stamped with the complete
        event trail *before* the result becomes visible — so a subscriber
        reacting to ``job_finished`` (the natural fetch-on-completion
        pattern) observes a finished status and a readable result, never
        ``JobNotFinished``.  ``error_text`` overrides the event's rendering
        of ``error`` (a job recovered from a journal keeps its original
        message).
        """
        ok = None
        if status is JobStatus.DONE and result is not None:
            ok = bool(getattr(result, "ok", getattr(result, "all_ok", None)))
        if error_text is None:
            error_text = "" if error is None else f"{type(error).__name__}: {error}"
        final_event = JobFinished(
            job_id=self.id,
            outcome=_OUTCOMES[status],
            ok=ok,
            error=error_text,
            time_seconds=elapsed,
        )
        with self._condition:
            self._events.append(final_event.stamped(seq=len(self._events), timestamp=time.time()))
            statistics = getattr(result, "statistics", None)
            if isinstance(statistics, dict):
                statistics["events"] = [event.to_dict() for event in self._events]
            self.status = status
            self.result = result
            self.error = error
            subscribers = list(self._subscribers)
            self._condition.notify_all()
        for subscriber in subscribers:
            self._drain(subscriber)

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------

    def request_cancel(self) -> bool:
        """Flag the job for cooperative cancellation; False once finished."""
        with self._condition:
            if self.status.finished:
                return False
            self._cancel_requested = True
            return True

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    # ------------------------------------------------------------------
    # Waiting
    # ------------------------------------------------------------------

    def wait(self, timeout: float | None = None) -> bool:
        with self._condition:
            self._condition.wait_for(lambda: self.status.finished, timeout=timeout)
            return self.status.finished

    def wait_for_event(self, position: int, timeout: float | None = None) -> bool:
        """Block until an event past ``position`` exists (or the job finished).

        The long-poll primitive of the ``events`` op: returns True iff at
        least one event with ``seq >= position`` is available.  A finished
        job never emits again, so the wait also ends (possibly returning
        False) once the job is terminal.
        """
        with self._condition:
            self._condition.wait_for(
                lambda: len(self._events) > position or self.status.finished, timeout=timeout
            )
            return len(self._events) > position


def check_job(job_id: str, protocol, properties: tuple, predicate=None, priority: int = 0) -> Job:
    """A job checking ``properties`` (already normalised) on one protocol."""
    return Job(
        job_id=job_id,
        kind="check",
        payload={"protocol": protocol, "properties": properties, "predicate": predicate},
        priority=int(priority),
        protocol_name=getattr(protocol, "name", ""),
        properties=properties,
    )


def batch_job(job_id: str, protocols: list, properties: tuple, priority: int = 0) -> Job:
    """A job checking ``properties`` (already normalised) on every protocol of a batch."""
    return Job(
        job_id=job_id,
        kind="batch",
        payload={"protocols": protocols, "properties": properties},
        priority=int(priority),
        protocol_name=f"{len(protocols)} protocol(s)",
        properties=properties,
    )


def queued_event(job: Job) -> JobQueued:
    """The ``job_queued`` event for a freshly created job."""
    return JobQueued(
        job_id=job.id,
        protocol_name=job.protocol_name,
        properties=list(job.properties),
        priority=job.priority,
        kind=job.kind,
    )
