"""The verification service: priority-scheduled jobs over one shared engine.

:class:`VerificationService` owns the machinery a
:class:`~repro.api.verifier.Verifier` session used to own directly — one
validated options bundle, one lazily created (and reused) parallel engine,
one result cache, the per-protocol analysis contexts — and exposes it as an
asynchronous job API:

* :meth:`submit` / :meth:`submit_batch` enqueue work and return a
  :class:`~repro.service.jobs.JobHandle` immediately;
* ``workers`` dispatcher threads drain the queue **priority-first** (higher
  ``priority`` values run earlier; FIFO within a priority), all sharing the
  service's engine worker pool and result cache;
* every stage emits a typed
  :class:`~repro.service.events.ProgressEvent`, recorded per job, delivered
  to subscribers and iterators, and stamped into the finished report's
  statistics as the ``"events"`` trail;
* cancellation is cooperative: a cancelled queued job never starts, a
  cancelled running job stops at the next checkpoint (engine wave boundary,
  pattern/strategy iteration) and frees its workers for later jobs.

``Verifier.check``/``check_many`` are synchronous facades over this class,
so the two surfaces produce identical verdicts by construction.
"""

from __future__ import annotations

import heapq
import inspect
import itertools
import logging
import re
import threading
import time
from collections.abc import Callable, Iterable, Sequence

from repro.api.options import VerificationOptions
from repro.api.properties import property_checker
from repro.api.report import PropertyResult, Verdict, VerificationReport
from repro.engine import monitor
from repro.engine.monitor import JobBinding, JobCancelledError, JobDeadlineExceeded
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span
from repro.service.events import (
    JobFinished,
    JobRecovered,
    JobStarted,
    ProgressEvent,
    PropertyFinished,
    PropertyStarted,
)
from repro.service.jobs import Job, JobHandle, JobStatus, queued_event

logger = logging.getLogger(__name__)

#: Job-level latency and outcome counters for ``GET /metricsz``; the
#: per-instance ``statistics`` dict keeps its historical payload shape.
_JOB_SECONDS = REGISTRY.histogram(
    "repro_job_seconds",
    "End-to-end verification job latency, by terminal status",
)

#: The default property set of a bare ``service.submit(protocol)``.
DEFAULT_PROPERTIES = ("ws3",)

#: Analysis contexts kept per service (FIFO-bounded by protocol hash).
_MAX_CONTEXTS = 16

#: Finished jobs (with their event logs) retained for later lookup.  A
#: long-running serve daemon must not accumulate every job it ever ran:
#: once the bound is exceeded the oldest *finished* jobs are evicted
#: (queued/running jobs are never evicted) and ``service.job(id)`` starts
#: answering ``KeyError`` for them.  Callers holding a ``JobHandle`` keep
#: their job alive regardless — eviction only drops the service's index.
_MAX_FINISHED_JOBS = 256


def _normalize_properties(properties) -> tuple[str, ...]:
    if properties is None:
        return DEFAULT_PROPERTIES
    if isinstance(properties, str):
        return (properties,)
    names = tuple(properties)
    if not names:
        raise ValueError("at least one property must be requested")
    return names


class VerificationService:
    """Asynchronous verification jobs over one shared engine and cache.

    Parameters
    ----------
    options:
        A :class:`VerificationOptions` bundle (defaults apply when omitted);
        keyword overrides are applied on top, mirroring ``Verifier``.
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
        if options is None:
            options = VerificationOptions(**overrides)
        elif overrides:
            options = options.replace(**overrides)
        if engine is not None and options.jobs != 1:
            raise ValueError("pass either jobs>1 in the options or an engine, not both")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.options = options
        self.workers = int(workers)
        self._engine = engine
        self._owns_engine = False
        self._cache = cache
        self._closed = False
        self._lock = threading.Lock()
        self._queue_condition = threading.Condition(self._lock)
        self._queue: list[tuple[int, int, Job]] = []  # heap of (-priority, seq, job)
        self._seq = itertools.count()
        self._job_seq = itertools.count(1)
        self._jobs: dict[str, Job] = {}
        self._threads: list[threading.Thread] = []
        self._contexts: dict[str, object] = {}
        self._contexts_lock = threading.Lock()
        self.statistics = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "subscriber_errors": 0,
            "recovered": 0,
            "resumed": 0,
        }
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
        """Stop accepting jobs, drain the queue, shut down an owned engine.

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
        with self._lock:
            if self._owns_engine and self._engine is not None:
                self._engine.shutdown()
                self._engine = None
                self._owns_engine = False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def engine(self):
        """The shared engine (``None`` until a batch job fans out).

        Only batch jobs use the pool, one protocol per worker; a single
        check always runs serially on its dispatcher thread.
        """
        return self._engine

    def _engine_for_call(self):
        with self._lock:
            # Refuse new outside callers once closed — but a dispatcher
            # thread finishing its in-flight job during the close() drain is
            # internal and must keep its engine access (otherwise every job
            # caught mid-run by a shutdown would fail instead of finishing).
            if self._closed and threading.current_thread() not in self._threads:
                raise RuntimeError("this VerificationService is closed")
            if self._engine is None and self.options.jobs > 1:
                from repro.engine.scheduler import VerificationEngine

                self._engine = VerificationEngine(
                    jobs=self.options.jobs, retry=self.options.retry
                )
                self._owns_engine = True
            return self._engine

    def _cache_for_call(self):
        with self._lock:
            if self._cache is None and self.options.cache_dir is not None:
                from repro.engine.cache import ResultCache

                self._cache = ResultCache(self.options.cache_dir)
            return self._cache

    def analysis_context(self, protocol):
        """The shared per-protocol :class:`~repro.constraints.context.AnalysisContext`.

        One context per protocol (by content hash), reused across every job
        of the service.
        """
        from repro.constraints.context import AnalysisContext
        from repro.engine.cache import protocol_content_hash

        key = protocol_content_hash(protocol)
        with self._contexts_lock:
            context = self._contexts.get(key)
            if context is None:
                context = AnalysisContext(protocol).seed_protocol_key(key)
                if len(self._contexts) >= _MAX_CONTEXTS:
                    self._contexts.pop(next(iter(self._contexts)))
                self._contexts[key] = context
            return context

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
        names = _normalize_properties(properties)
        for name in names:
            property_checker(name)  # fail fast on unknown names, in the caller
        job = Job(
            job_id=f"job-{next(self._job_seq)}",
            kind="check",
            payload={"protocol": protocol, "properties": names, "predicate": predicate},
            priority=int(priority),
            protocol_name=getattr(protocol, "name", ""),
            properties=names,
        )
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
        protocols = list(protocols)
        names = _normalize_properties(properties)
        for name in names:
            property_checker(name)
        job = Job(
            job_id=f"job-{next(self._job_seq)}",
            kind="batch",
            payload={"protocols": protocols, "properties": names},
            priority=int(priority),
            protocol_name=f"{len(protocols)} protocol(s)",
            properties=names,
        )
        return self._enqueue(job, subscriber)

    def _enqueue(self, job: Job, subscriber) -> JobHandle:
        handle = JobHandle(job)
        if subscriber is not None:
            handle.subscribe(subscriber)
        with self._lock:
            if self._closed:
                raise RuntimeError("this VerificationService is closed")
            self._jobs[job.id] = job
            self.statistics["submitted"] += 1
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
                    self.statistics["submitted"] -= 1
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
                self.statistics["submitted"] -= 1
                raise RuntimeError("this VerificationService is closed")
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
        if not job.mark_running():
            # Cancelled while queued: it never starts, never touches a worker.
            self._finish(job, JobStatus.CANCELLED, outcome="cancelled")
            return
        if self.journal is not None:
            # Best-effort: a failed "started" append only loses the
            # interrupted-mid-run distinction, never the job itself.
            try:
                self.journal.append({"record": "started", "job": job.id})
            except OSError as error:  # pragma: no cover - disk failure
                logger.warning("could not journal start of %s: %s", job.id, error)
        start = time.perf_counter()
        binding = JobBinding(
            job.id,
            record=job.record_event,
            should_cancel=lambda: job.cancel_requested,
            budget=self.options.retry.job_timeout,
        )
        with monitor.bound_to_job(binding):
            job.record_event(JobStarted(job_id=job.id))
            try:
                if job.kind == "batch":
                    result = self._run_batch_job(job)
                else:
                    result = self._run_check_job(job)
            except JobCancelledError:
                self._finish(job, JobStatus.CANCELLED, outcome="cancelled", start=start)
            except BaseException as error:
                self._finish(job, JobStatus.FAILED, error=error, start=start)
            else:
                self._finish(job, JobStatus.DONE, result=result, start=start)

    def _finish(
        self,
        job: Job,
        status: JobStatus,
        *,
        result=None,
        error: BaseException | None = None,
        outcome: str | None = None,
        start: float | None = None,
    ) -> None:
        elapsed = 0.0 if start is None else time.perf_counter() - start
        if outcome is None:
            outcome = {JobStatus.DONE: "done", JobStatus.FAILED: "error"}.get(status, "cancelled")
        ok = None
        if status is JobStatus.DONE and result is not None:
            ok = bool(getattr(result, "ok", getattr(result, "all_ok", None)))
        if self.journal is not None:
            # Write-ahead relative to the in-memory flip: once job.finish
            # makes the result visible, it is already durable.  Best-effort
            # beyond that — the caller still gets the in-memory result even
            # if the disk is gone.
            try:
                self.journal.append(self._finished_record(job, status, result, error))
            except (OSError, ValueError) as journal_error:  # pragma: no cover - disk failure
                logger.warning("could not journal finish of %s: %s", job.id, journal_error)
        # The terminal event, the status flip and the event-trail stamping
        # into the result's statistics happen atomically inside the job (see
        # Job.finish), so completion subscribers observe a finished job.
        job.finish(
            status,
            result=result,
            error=error,
            final_event=JobFinished(
                job_id=job.id,
                outcome=outcome,
                ok=ok,
                error="" if error is None else f"{type(error).__name__}: {error}",
                time_seconds=elapsed,
            ),
        )
        counter = {
            JobStatus.DONE: "completed",
            JobStatus.FAILED: "failed",
            JobStatus.CANCELLED: "cancelled",
        }[status]
        _JOB_SECONDS.observe(elapsed, status=counter)
        with self._lock:
            self.statistics[counter] += 1
            self.statistics["subscriber_errors"] += job.subscriber_errors
            job.subscriber_errors = 0
            self._evict_finished_locked()

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

    def cache_statistics(self) -> dict | None:
        """A snapshot of the result cache's counters (``None`` if unopened)."""
        with self._lock:
            if self._cache is None:
                return None
            return dict(self._cache.statistics)

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

        kind = state.get("kind", "check")
        properties = tuple(state.get("properties") or DEFAULT_PROPERTIES)
        if kind == "batch":
            protocols = [protocol_from_dict(entry) for entry in state.get("protocols", [])]
            for protocol, predicate in zip(protocols, state.get("metadata_predicates", [])):
                if predicate is not None:
                    protocol.metadata["predicate"] = predicate_from_dict(predicate)
            payload = {"protocols": protocols, "properties": properties}
        else:
            protocol = protocol_from_dict(state["protocol"])
            if state.get("metadata_predicate") is not None:
                protocol.metadata["predicate"] = predicate_from_dict(state["metadata_predicate"])
            predicate = None
            if state.get("predicate") is not None:
                predicate = predicate_from_dict(state["predicate"])
            payload = {"protocol": protocol, "properties": properties, "predicate": predicate}
        return Job(
            job_id=job_id,
            kind=kind,
            payload=payload,
            priority=int(state.get("priority", 0)),
            protocol_name=state.get("protocol_name", ""),
            properties=properties,
        )

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
        outcome = {JobStatus.DONE: "done", JobStatus.FAILED: "error"}.get(status, "cancelled")
        ok = None
        if status is JobStatus.DONE and result is not None:
            ok = bool(getattr(result, "ok", getattr(result, "all_ok", None)))
        job.record_event(queued_event(job))
        job.finish(
            status,
            result=result,
            error=error,
            final_event=JobFinished(job_id=job.id, outcome=outcome, ok=ok, error=error_text),
        )
        with self._lock:
            self._jobs[job.id] = job
            self.statistics["recovered"] += 1

    def _resume_unfinished(self, job_id: str, state: dict) -> None:
        """Re-enqueue a journalled job the previous process never finished."""
        job = self._rebuild_job(job_id, state)
        with self._lock:
            self._jobs[job.id] = job
            self.statistics["submitted"] += 1
            self.statistics["resumed"] += 1
        job.record_event(queued_event(job))
        job.record_event(JobRecovered(job_id=job.id, had_started=bool(state.get("started"))))
        with self._lock:
            heapq.heappush(self._queue, (-job.priority, next(self._seq), job))

    # ------------------------------------------------------------------
    # The actual checking (shared with the Verifier facade)
    # ------------------------------------------------------------------

    def _run_check_job(self, job: Job) -> VerificationReport:
        """One submit job: the check, served from the result cache when possible.

        Single jobs share the batch path's cache keying exactly
        (:func:`~repro.engine.batch.batch_cache_options`), so a daemon's
        ``submit`` traffic, ``check_many`` batches and earlier runs all hit
        the same entries.
        """
        payload = job.payload
        protocol = payload["protocol"]
        names = payload["properties"]
        predicate = payload["predicate"]
        cache = self._cache_for_call()
        key = None
        if cache is not None:
            from repro.engine.batch import batch_cache_options
            from repro.engine.cache import ResultCache, protocol_content_hash
            from repro.engine.scheduler import ENGINE_VERSION
            from repro.service.events import CacheHit

            effective = predicate
            if effective is None and "correctness" in names:
                effective = protocol.metadata.get("predicate")
            content_hash = protocol_content_hash(protocol)
            key = ResultCache.entry_key(
                content_hash,
                ENGINE_VERSION,
                batch_cache_options(names, self.options, effective),
            )
            cached = cache.get(key)
            if cached is not None:
                job.record_event(
                    CacheHit(job_id=job.id, protocol_name=protocol.name, protocol_hash=content_hash)
                )
                report = VerificationReport.from_dict(cached)
                report.statistics["from_cache"] = True
                return report
        report = self.run_check(protocol, names, predicate=predicate)
        if cache is not None and not report.partial:
            # A partial report decided nothing for its unfinished properties;
            # caching it would serve the indecision forever.
            cache.put(key, report.to_dict())
        return report

    def run_check(self, protocol, names: Sequence[str], *, predicate=None) -> VerificationReport:
        """Check ``names`` on one protocol, emitting property-stage events.

        This is the synchronous core used both by dispatcher threads and by
        ``run_batch``'s serial fallback; it must run under a job binding to
        produce events (without one it degrades to the plain check).

        With ``options.trace`` the whole check runs under a span sink and
        the finished report embeds the span tree (``statistics["trace"]``)
        next to the progress-event trail — unless a traced batch already
        collects spans on this thread, in which case the check's ``job``
        span joins the batch's tree instead.  ``options.profile`` adds
        per-phase wall/CPU timing and a ``cProfile`` capture of this thread
        (``statistics["profile"]``).  Both are execution-only: the verdicts
        and artifacts are identical to an uninstrumented run.
        """
        if not (self.options.trace or self.options.profile):
            return self._check_properties(protocol, tuple(names), predicate, None)
        import contextlib

        from repro.obs import trace as obs_trace
        from repro.obs.profile import PhaseProfile, cprofile_capture

        traced = self.options.trace
        sink = obs_trace.TraceSink() if traced and not obs_trace.tracing_active() else None
        phases = PhaseProfile() if self.options.profile else None
        capture = None
        with contextlib.ExitStack() as stack:
            if self.options.profile:
                capture = stack.enter_context(cprofile_capture())
            if sink is not None:
                stack.enter_context(obs_trace.collect(sink))
            if traced:
                stack.enter_context(
                    obs_trace.span(
                        "job",
                        protocol=protocol.name,
                        job_id=monitor.current_job_id() or "",
                    )
                )
            report = self._check_properties(protocol, tuple(names), predicate, phases)
        if sink is not None:
            report.statistics["trace"] = sink.spans()
            if sink.dropped:
                report.statistics["trace_dropped_spans"] = sink.dropped
        if self.options.profile:
            report.statistics["profile"] = {
                "phases": phases.to_dict(),
                "top_functions": capture.top_functions(),
            }
        return report

    def _check_properties(
        self, protocol, names: tuple, predicate, phases
    ) -> VerificationReport:
        start = time.perf_counter()
        context = self.analysis_context(protocol)
        monitor.emit_backend_selected(self.options.backend, scope="options")
        results = []
        deadline_error: JobDeadlineExceeded | None = None
        for name in names:
            checker = property_checker(name)
            if deadline_error is not None:
                # Job budget already gone: the remaining properties are
                # reported PARTIAL rather than silently dropped, so the
                # caller sees exactly which verdicts are missing.
                result = PropertyResult(
                    property=name, verdict=Verdict.PARTIAL, reason=str(deadline_error)
                )
            else:
                try:
                    monitor.check_cancelled()
                    monitor.emit(
                        lambda job_id, name=name: PropertyStarted(
                            job_id=job_id, property=name, protocol_name=protocol.name
                        )
                    )
                    with obs_span("property", property=name, protocol=protocol.name) as pspan:
                        if phases is not None:
                            with phases.phase(name):
                                result = self._run_checker(checker, protocol, predicate, context)
                        else:
                            result = self._run_checker(checker, protocol, predicate, context)
                        if pspan is not None:
                            pspan.attrs["verdict"] = result.verdict.value
                except JobDeadlineExceeded as error:
                    # A plain cancellation still propagates (JobCancelledError
                    # is the parent class); only the budget expiry degrades to
                    # a partial report.
                    deadline_error = error
                    result = PropertyResult(
                        property=name, verdict=Verdict.PARTIAL, reason=str(error)
                    )
            monitor.emit(
                lambda job_id, name=name, result=result: PropertyFinished(
                    job_id=job_id,
                    property=name,
                    protocol_name=protocol.name,
                    verdict=result.verdict.value,
                )
            )
            results.append(result)
        statistics = {
            "time": time.perf_counter() - start,
            "jobs": 1,
            "properties": list(names),
        }
        if deadline_error is not None:
            statistics["partial"] = True
        return VerificationReport(
            protocol_name=protocol.name,
            protocol_hash=context.protocol_key,
            properties=results,
            options=self.options.to_dict(),
            statistics=statistics,
        )

    def _run_checker(self, checker, protocol, predicate, context):
        """Invoke one checker, passing the shared context when it accepts one.

        Custom checkers written against the pre-context interface (no
        ``context`` keyword) keep working unchanged.
        """
        kwargs = {"predicate": predicate}
        try:
            accepts_context = "context" in inspect.signature(checker.check).parameters
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            accepts_context = False
        if accepts_context:
            kwargs["context"] = context
        return checker.check(protocol, self.options, **kwargs)

    def _run_batch_job(self, job: Job):
        """Run a batch; with ``options.trace`` its span tree is one rooted tree.

        The ``batch`` root span holds the ``engine.wave`` span, the adopted
        worker ``subproblem`` spans and, below them, each protocol's ``job``
        span; it lands in ``batch.statistics["trace"]``.
        """
        from repro.engine.batch import run_batch

        payload = job.payload
        names = payload["properties"]

        def run():
            return run_batch(
                payload["protocols"],
                names,
                self.options,
                engine=self._engine_for_call(),
                cache=self._cache_for_call(),
                check_one=lambda protocol: self.run_check(protocol, names),
            )

        if not self.options.trace:
            return run()
        from repro.obs import trace as obs_trace

        sink = obs_trace.TraceSink()
        with obs_trace.collect(sink):
            with obs_trace.span("batch", protocols=len(payload["protocols"]), job_id=job.id):
                batch = run()
        batch.statistics["trace"] = sink.spans()
        if sink.dropped:
            batch.statistics["trace_dropped_spans"] = sink.dropped
        return batch
