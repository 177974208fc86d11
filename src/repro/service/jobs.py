"""The public :class:`JobHandle` of the verification service.

A job is one unit of service work — a single-protocol check or a whole
batch — held in a :class:`~repro.api.jobs.Job` record.  The handle wraps
that record with the non-blocking public surface: ``status()`` /
``result()`` / ``cancel()`` plus the blocking ``wait(timeout=)`` and the
``events()`` iterator (see :mod:`repro.api.jobs` for the event delivery
guarantees).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.api.jobs import Job, JobStatus
from repro.engine.monitor import JobCancelledError
from repro.service.events import ProgressEvent


class JobNotFinished(RuntimeError):
    """``result()`` was called before the job finished (it never blocks)."""


class JobFailedError(RuntimeError):
    """``result()`` was called on a job whose execution raised; chains the cause."""


class JobHandle:
    """Public, non-blocking facade over one submitted job.

    Returned by :meth:`~repro.service.service.VerificationService.submit`;
    all methods are safe to call from any thread.
    """

    def __init__(self, job: Job):
        self._job = job

    @property
    def job_id(self) -> str:
        return self._job.id

    @property
    def kind(self) -> str:
        """``"check"`` (one protocol) or ``"batch"`` (many)."""
        return self._job.kind

    @property
    def priority(self) -> int:
        return self._job.priority

    def status(self) -> JobStatus:
        """The job's current lifecycle state (never blocks)."""
        return self._job.status

    def result(self):
        """The job's result — without waiting.

        Returns the :class:`~repro.api.report.VerificationReport` (or
        :class:`~repro.engine.batch.BatchResult` for batch jobs) once the
        job is done.  Raises :class:`JobNotFinished` while the job is still
        queued or running, :class:`~repro.engine.monitor.JobCancelledError`
        for cancelled jobs, and :class:`JobFailedError` (chaining the
        original exception) for failed ones.  Use :meth:`wait` first to
        block.
        """
        status = self._job.status
        if not status.finished:
            raise JobNotFinished(f"job {self.job_id!r} is still {status.value}")
        if status is JobStatus.CANCELLED:
            raise JobCancelledError(self.job_id)
        if status is JobStatus.FAILED:
            raise JobFailedError(f"job {self.job_id!r} failed: {self._job.error}") from self._job.error
        return self._job.result

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes; True iff it did within ``timeout``."""
        return self._job.wait(timeout=timeout)

    def cancel(self) -> bool:
        """Request cooperative cancellation.

        Queued jobs are cancelled before they start; running jobs stop at
        the next checkpoint (engine wave boundary, pattern/strategy
        iteration).  Returns False if the job had already finished.
        """
        return self._job.request_cancel()

    # -- events ------------------------------------------------------------

    def subscribe(self, callback: Callable[[ProgressEvent], None]) -> None:
        """Deliver every event (past and future) of this job to ``callback``."""
        self._job.subscribe(callback)

    def events(self, start: int = 0, timeout: float | None = None) -> Iterator[ProgressEvent]:
        """Iterate the job's event stream; see :meth:`Job.iter_events`."""
        return self._job.iter_events(start=start, timeout=timeout)

    def events_so_far(self) -> list[ProgressEvent]:
        """A snapshot of the events recorded up to now (never blocks)."""
        return self._job.events_snapshot()

    def wait_for_events(self, since: int, timeout: float | None = None) -> bool:
        """Block until an event with ``seq >= since`` exists; see :meth:`Job.wait_for_event`."""
        return self._job.wait_for_event(since, timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - display convenience
        return f"JobHandle({self.job_id!r}, {self._job.status.value})"
