"""The verification service: priority-scheduled jobs over one shared verifier.

:class:`VerificationService` wraps one :class:`~repro.api.verifier.Verifier`
— its options, lazily created engine, result cache and per-protocol analysis
contexts — and exposes its check pipeline as an asynchronous job API:

* :meth:`submit` / :meth:`submit_batch` enqueue work and return a
  :class:`~repro.service.jobs.JobHandle` immediately;
* ``workers`` dispatcher threads drain the queue **priority-first** (higher
  ``priority`` values run earlier; FIFO within a priority), each running
  its job through :meth:`Verifier.run_job <repro.api.verifier.Verifier.run_job>`,
  the same lifecycle ``Verifier.check`` runs on its caller's thread;
* every stage emits a typed
  :class:`~repro.service.events.ProgressEvent`, recorded per job, delivered
  to subscribers and iterators, and stamped into the finished report's
  statistics as the ``"events"`` trail;
* cancellation is cooperative: a cancelled queued job never starts, a
  cancelled running job stops at the next checkpoint (engine wave boundary,
  pattern/strategy iteration) and frees its workers for later jobs;
* with a journal, every submit / start / finish is recorded write-ahead and
  a new service recovers the jobs of a crashed one.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import re
import threading
import time
from collections.abc import Callable, Iterable, Sequence

from repro.api.jobs import Job, JobStatus, batch_job, check_job, queued_event
from repro.api.options import VerificationOptions
from repro.api.report import VerificationReport
from repro.api.verifier import DEFAULT_PROPERTIES, Verifier, normalize_properties
from repro.obs.metrics import REGISTRY
from repro.service.events import JobRecovered, ProgressEvent
from repro.service.jobs import JobHandle

logger = logging.getLogger(__name__)

#: Job-level latency for ``GET /metricsz``, and this process's job events:
#: the ``service`` block of the ``stats`` op (:func:`service_statistics`).
_JOB_SECONDS = REGISTRY.histogram(
    "repro_job_seconds",
    "End-to-end verification job latency, by terminal status",
)
_EVENTS = REGISTRY.counter(
    "repro_service_events_total",
    "Verification-service job events: submitted, finished by status, recovered, resumed",
)


def service_statistics() -> dict:
    """This process's verification-service job events, by event."""
    return _EVENTS.counts(
        ("submitted", "completed", "failed", "cancelled", "subscriber_errors", "recovered", "resumed")
    )


#: Finished jobs (with their event logs) retained for later lookup.  A
#: long-running serve daemon must not accumulate every job it ever ran:
#: once the bound is exceeded the oldest *finished* jobs are evicted
#: (queued/running jobs are never evicted) and ``service.job(id)`` starts
#: answering ``KeyError`` for them.  Callers holding a ``JobHandle`` keep
#: their job alive regardless — eviction only drops the service's index.
_MAX_FINISHED_JOBS = 256


class VerificationService:
    """Asynchronous verification jobs over one shared :class:`Verifier`.

    Parameters
    ----------
    options:
        A :class:`VerificationOptions` bundle (defaults apply when omitted);
        keyword overrides are applied on top.  Options, ``engine`` and
        ``cache`` build the service's :attr:`verifier`.
    workers:
        Dispatcher threads, i.e. how many jobs may *run* concurrently.  The
        default of 1 serialises jobs (a batch job still verifies
        ``options.jobs`` protocols at a time on the worker pool); raise it
        to overlap independent jobs.
    engine:
        An existing :class:`~repro.engine.scheduler.VerificationEngine` for
        batch jobs (left running on :meth:`close`); mutually exclusive
        with ``jobs > 1`` in the options, which makes the service create —
        and own — a pool lazily on the first batch.
    cache:
        An existing :class:`~repro.engine.cache.ResultCache`; by default a
        cache is opened at ``options.cache_dir`` (if set) on first use.
    journal_dir:
        Directory of the durable :class:`~repro.service.journal.JobJournal`.
        When set, every submit / start / finish is journalled write-ahead,
        and construction *recovers* the journal: finished jobs become
        servable results again, unfinished jobs are re-enqueued (unless
        ``resume=False``) and run as if the crash never happened.
    resume:
        With a journal: whether to re-enqueue unfinished journalled jobs at
        construction (finished results are always restored).
    journal_compact_threshold:
        With a journal: the on-disk size (bytes) past which the journal is
        auto-compacted at startup.  ``None`` keeps the journal's default
        (:data:`~repro.service.journal.COMPACT_THRESHOLD_BYTES`); ``0``
        disables auto-compaction entirely.
    """

    def __init__(
        self,
        options: VerificationOptions | None = None,
        *,
        workers: int = 1,
        engine=None,
        cache=None,
        journal_dir=None,
        resume: bool = True,
        journal_compact_threshold: int | None = None,
        **overrides,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        #: The session whose check pipeline every dispatcher runs.
        self.verifier = Verifier(options, engine=engine, cache=cache, **overrides)
        self.workers = int(workers)
        self._closed = False
        self._lock = threading.Lock()
        self._queue_condition = threading.Condition(self._lock)
        self._queue: list[tuple[int, int, Job]] = []  # heap of (-priority, seq, job)
        self._seq = itertools.count()
        self._job_seq = itertools.count(1)
        self._jobs: dict[str, Job] = {}
        self._threads: list[threading.Thread] = []
        #: Whether dispatcher threads drain the queue after close() (the
        #: default) or leave queued jobs for the journal to resume.
        self._drain_on_close = True
        self.journal = None
        if journal_dir is not None:
            from repro.service.journal import COMPACT_THRESHOLD_BYTES, JobJournal

            if journal_compact_threshold is None:
                threshold = COMPACT_THRESHOLD_BYTES
            elif journal_compact_threshold <= 0:
                threshold = None  # auto-compaction disabled
            else:
                threshold = int(journal_compact_threshold)
            self.journal = JobJournal(journal_dir, compact_threshold_bytes=threshold)
            self._recover_journal(resume)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "VerificationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    def close(self, wait: bool = True, drain: bool = True) -> None:
        """Stop accepting jobs, drain the queue, close the verifier.

        Pending jobs still run to completion (they were accepted); pass
        ``wait=False`` to return without joining the dispatcher threads.
        With ``drain=False`` queued jobs are *left queued* instead of run —
        the journal shutdown path: a journalled service closes fast and the
        undrained jobs are resumed by the next process from the journal.
        """
        with self._lock:
            if self._closed:
                threads = []
            else:
                self._closed = True
                self._drain_on_close = drain
                threads = list(self._threads)
            self._queue_condition.notify_all()
        if wait:
            for thread in threads:
                thread.join()
        self.verifier.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def options(self) -> VerificationOptions:
        return self.verifier.options

    @property
    def engine(self):
        """The verifier's engine (``None`` until a batch job fans out)."""
        return self.verifier.engine

    def analysis_context(self, protocol):
        """The verifier's shared per-protocol analysis context."""
        return self.verifier.analysis_context(protocol)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        protocol,
        properties: Sequence[str] | str | None = None,
        *,
        predicate=None,
        priority: int = 0,
        subscriber: Callable[[ProgressEvent], None] | None = None,
    ) -> JobHandle:
        """Enqueue one protocol check; returns without blocking.

        ``priority`` orders the queue (higher runs earlier); ``subscriber``
        is a convenience for registering an event callback atomically with
        submission, so the ``job_queued`` event is never missed.
        """
        names = normalize_properties(properties)
        job = check_job(f"job-{next(self._job_seq)}", protocol, names, predicate, priority)
        return self._enqueue(job, subscriber)

    def submit_batch(
        self,
        protocols: Iterable,
        properties: Sequence[str] | str | None = None,
        *,
        priority: int = 0,
        subscriber: Callable[[ProgressEvent], None] | None = None,
    ) -> JobHandle:
        """Enqueue a whole batch (the ``check_many`` semantics) as one job.

        The job's result is a :class:`~repro.engine.batch.BatchResult`:
        duplicate protocols are verified once, known verdicts are served
        from the result cache (emitting ``cache_hit`` events), and with a
        parallel engine the pending protocols fan out across the pool.
        """
        names = normalize_properties(properties)
        job = batch_job(f"job-{next(self._job_seq)}", list(protocols), names, priority)
        return self._enqueue(job, subscriber)

    def _enqueue(self, job: Job, subscriber) -> JobHandle:
        handle = JobHandle(job)
        if subscriber is not None:
            handle.subscribe(subscriber)
        with self._lock:
            if self._closed:
                raise RuntimeError("this VerificationService is closed")
            self._jobs[job.id] = job
        if self.journal is not None:
            # Write-ahead: the submission is durable before the job becomes
            # poppable.  A failing journal fails the submit — accepting a
            # job the journal cannot recover would break the durability
            # contract the caller opted into.
            try:
                self.journal.append(self._submitted_record(job))
            except BaseException:
                with self._lock:
                    self._jobs.pop(job.id, None)
                raise
        # The queued event is recorded *before* the job becomes poppable, so
        # every trail starts with job_queued (seq 0) — and subscribers run
        # outside the service lock, so a callback touching the service
        # cannot deadlock.
        job.record_event(queued_event(job))
        with self._lock:
            if self._closed:
                # Closed in the window above: the job can never run.
                self._jobs.pop(job.id, None)
                raise RuntimeError("this VerificationService is closed")
            _EVENTS.inc(event="submitted")
            heapq.heappush(self._queue, (-job.priority, next(self._seq), job))
            self._ensure_workers_locked()
            self._queue_condition.notify()
        return handle

    def _ensure_workers_locked(self) -> None:
        while len(self._threads) < self.workers:
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-service-worker-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    # ------------------------------------------------------------------
    # Job lookup
    # ------------------------------------------------------------------

    def job(self, job_id: str) -> JobHandle:
        """The handle for a submitted job id; unknown ids raise ``KeyError``."""
        return JobHandle(self._jobs[job_id])

    def jobs(self) -> list[JobHandle]:
        """Handles for every job the service has seen, in submission order."""
        with self._lock:
            return [JobHandle(job) for job in self._jobs.values()]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._queue_condition:
                while not self._queue and not self._closed:
                    self._queue_condition.wait()
                if self._closed and not self._drain_on_close:
                    return  # closed without draining: queued jobs stay journalled
                if not self._queue:
                    return  # closed and drained
                _, _, job = heapq.heappop(self._queue)
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        start = time.perf_counter()
        if job.mark_running():
            if self.journal is not None:
                # Best-effort: a failed "started" append only loses the
                # interrupted-mid-run distinction, never the job itself.
                try:
                    self.journal.append({"record": "started", "job": job.id})
                except OSError as error:  # pragma: no cover - disk failure
                    logger.warning("could not journal start of %s: %s", job.id, error)
            self.verifier.run_job(job, before_finish=self._journal_finished)
        else:
            # Cancelled while queued: it never starts, never touches a worker.
            self._journal_finished(job, JobStatus.CANCELLED, None, None)
            job.finish(JobStatus.CANCELLED)
        counter = {
            JobStatus.DONE: "completed",
            JobStatus.FAILED: "failed",
            JobStatus.CANCELLED: "cancelled",
        }[job.status]
        _JOB_SECONDS.observe(time.perf_counter() - start, status=counter)
        _EVENTS.inc(event=counter)
        with self._lock:
            _EVENTS.inc(job.subscriber_errors, event="subscriber_errors")
            job.subscriber_errors = 0
            self._evict_finished_locked()

    def _journal_finished(self, job: Job, status: JobStatus, result, error) -> None:
        """Journal a job's outcome before :meth:`Job.finish` makes it visible.

        Best-effort beyond that: the caller still gets the in-memory result
        even if the disk is gone.
        """
        if self.journal is None:
            return
        try:
            self.journal.append(self._finished_record(job, status, result, error))
        except (OSError, ValueError) as journal_error:  # pragma: no cover - disk failure
            logger.warning("could not journal finish of %s: %s", job.id, journal_error)

    def _evict_finished_locked(self) -> None:
        finished = [job_id for job_id, job in self._jobs.items() if job.status.finished]
        excess = len(finished) - _MAX_FINISHED_JOBS
        if excess > 0:
            # Dict order is submission order, so the oldest finished go first.
            for job_id in finished[:excess]:
                self._jobs.pop(job_id, None)

    # ------------------------------------------------------------------
    # Journal: durable records and crash recovery
    # ------------------------------------------------------------------

    def pending_count(self) -> int:
        """Jobs accepted but not yet picked up by a dispatcher."""
        with self._lock:
            return len(self._queue)

    def _submitted_record(self, job: Job) -> dict:
        """The journal line that makes a submission recoverable.

        Protocols are serialised losslessly; the documented predicate (both
        an explicit ``predicate=`` argument and one riding in
        ``protocol.metadata`` — which :func:`protocol_to_dict` drops) is
        captured separately so a recovered correctness check sees exactly
        what the original caller passed.
        """
        from repro.io.serialization import predicate_to_dict, protocol_to_dict

        record = {
            "record": "submitted",
            "job": job.id,
            "kind": job.kind,
            "priority": job.priority,
            "properties": list(job.properties),
            "protocol_name": job.protocol_name,
        }
        if job.kind == "batch":
            protocols = job.payload["protocols"]
            record["protocols"] = [protocol_to_dict(protocol) for protocol in protocols]
            metadata = [
                None
                if getattr(protocol, "metadata", {}).get("predicate") is None
                else predicate_to_dict(protocol.metadata["predicate"])
                for protocol in protocols
            ]
            if any(entry is not None for entry in metadata):
                record["metadata_predicates"] = metadata
        else:
            protocol = job.payload["protocol"]
            record["protocol"] = protocol_to_dict(protocol)
            if job.payload.get("predicate") is not None:
                record["predicate"] = predicate_to_dict(job.payload["predicate"])
            documented = getattr(protocol, "metadata", {}).get("predicate")
            if documented is not None:
                record["metadata_predicate"] = predicate_to_dict(documented)
        return record

    def _finished_record(self, job: Job, status: JobStatus, result, error) -> dict:
        record = {
            "record": "finished",
            "job": job.id,
            "status": status.value,
            "error": "" if error is None else f"{type(error).__name__}: {error}",
        }
        if isinstance(result, VerificationReport):
            record["report"] = result.to_dict()
        elif result is not None:
            from repro.engine.batch import BatchResult, batch_result_to_dict

            if isinstance(result, BatchResult):
                record["batch"] = batch_result_to_dict(result)
        return record

    def _recover_journal(self, resume: bool) -> None:
        """Replay the journal: restore finished results, re-enqueue the rest.

        Recovery never re-appends ``submitted`` records — the existing lines
        already make the jobs durable, and replay is last-wins, so restarting
        twice in a row is idempotent.
        """
        states = self.journal.load()
        if not states:
            return
        highest = 0
        for job_id in states:
            match = re.fullmatch(r"job-(\d+)", job_id)
            if match:
                highest = max(highest, int(match.group(1)))
        # Fresh submissions must never collide with journalled ids.
        self._job_seq = itertools.count(highest + 1)
        for job_id, state in states.items():
            try:
                if state.get("finished"):
                    self._restore_finished(job_id, state)
                elif resume:
                    self._resume_unfinished(job_id, state)
            except Exception as error:
                # One undecodable job must not take down recovery of the rest.
                logger.warning("could not recover journalled job %s: %s", job_id, error)
        with self._lock:
            if self._queue:
                self._ensure_workers_locked()
                self._queue_condition.notify_all()

    def _rebuild_job(self, job_id: str, state: dict) -> Job:
        from repro.io.serialization import predicate_from_dict, protocol_from_dict

        properties = tuple(state.get("properties") or DEFAULT_PROPERTIES)
        priority = state.get("priority", 0)
        if state.get("kind", "check") == "batch":
            protocols = [protocol_from_dict(entry) for entry in state.get("protocols", [])]
            for protocol, predicate in zip(protocols, state.get("metadata_predicates", [])):
                if predicate is not None:
                    protocol.metadata["predicate"] = predicate_from_dict(predicate)
            job = batch_job(job_id, protocols, properties, priority)
        else:
            protocol = protocol_from_dict(state["protocol"])
            if state.get("metadata_predicate") is not None:
                protocol.metadata["predicate"] = predicate_from_dict(state["metadata_predicate"])
            predicate = None
            if state.get("predicate") is not None:
                predicate = predicate_from_dict(state["predicate"])
            job = check_job(job_id, protocol, properties, predicate, priority)
        job.protocol_name = state.get("protocol_name", job.protocol_name)
        return job

    def _restore_finished(self, job_id: str, state: dict) -> None:
        """A journalled terminal job becomes a servable finished handle again."""
        job = self._rebuild_job(job_id, state)
        status = JobStatus(state.get("status", JobStatus.DONE.value))
        result = None
        if state.get("report") is not None:
            result = VerificationReport.from_dict(state["report"])
        elif state.get("batch") is not None:
            from repro.engine.batch import batch_result_from_dict

            result = batch_result_from_dict(state["batch"])
        error_text = state.get("error", "")
        error = None
        if status is JobStatus.FAILED:
            # The original exception type is gone; a RuntimeError carrying
            # the journalled message keeps JobHandle.result() raising.
            error = RuntimeError(error_text or "job failed (recovered from journal)")
        job.record_event(queued_event(job))
        job.finish(status, result=result, error=error, error_text=error_text)
        with self._lock:
            self._jobs[job.id] = job
        _EVENTS.inc(event="recovered")

    def _resume_unfinished(self, job_id: str, state: dict) -> None:
        """Re-enqueue a journalled job the previous process never finished."""
        job = self._rebuild_job(job_id, state)
        with self._lock:
            self._jobs[job.id] = job
        _EVENTS.inc(event="submitted")
        _EVENTS.inc(event="resumed")
        job.record_event(queued_event(job))
        job.record_event(JobRecovered(job_id=job.id, had_started=bool(state.get("started"))))
        with self._lock:
            heapq.heappush(self._queue, (-job.priority, next(self._seq), job))
