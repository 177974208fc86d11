"""The verification session: the check pipeline, run on the calling thread.

One :class:`Verifier` owns one :class:`~repro.api.options.VerificationOptions`
bundle and exposes the whole pipeline of the paper through two methods::

    with Verifier(jobs=4) as verifier:
        report = verifier.check(protocol, properties=["ws3", "correctness"])
        batch = verifier.check_many(protocols)

``check`` returns a lossless :class:`~repro.api.report.VerificationReport`
and always runs serially on the calling thread, one refinement loop per
property; ``check_many`` fans whole protocols over ``jobs`` worker
processes and serves repeat instances from the content-addressed result
cache.  The session keeps one analysis context per protocol, the lazily
created engine and the result cache.

Both methods run one :class:`~repro.api.jobs.Job` through
:meth:`Verifier.run_job`, the one job lifecycle: the thread is bound to the
job (:mod:`repro.engine.monitor`), so every stage emits a typed progress
event (``on_event``), a spent ``retry.job_timeout`` budget yields
``partial`` verdicts, and the result carries the job's event trail in its
statistics.  :class:`~repro.service.service.VerificationService` — the
asynchronous surface with priorities, cancellation and a journal — wraps
one ``Verifier`` and runs its jobs through the same method on dispatcher
threads, so the two surfaces produce identical verdicts by construction.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections.abc import Iterable, Sequence

from repro.api.jobs import Job, JobStatus, batch_job, check_job, queued_event
from repro.api.options import VerificationOptions
from repro.api.properties import property_checker
from repro.api.report import PropertyResult, Verdict, VerificationReport
from repro.engine import monitor
from repro.engine.monitor import JobBinding, JobCancelledError, JobDeadlineExceeded
from repro.obs.trace import span as obs_span
from repro.service.events import CacheHit, JobStarted, PropertyFinished, PropertyStarted

#: The default property set of a bare ``check(protocol)`` or ``submit(protocol)``.
DEFAULT_PROPERTIES = ("ws3",)

#: Analysis contexts kept per session (FIFO-bounded by protocol hash).
_MAX_CONTEXTS = 16


def normalize_properties(properties) -> tuple[str, ...]:
    """The requested property names as a tuple; unknown names raise ``ValueError``."""
    if properties is None:
        return DEFAULT_PROPERTIES
    names = (properties,) if isinstance(properties, str) else tuple(properties)
    if not names:
        raise ValueError("at least one property must be requested")
    for name in names:
        property_checker(name)  # fail fast, in the caller
    return names


class Verifier:
    """A verification session: validated options + reusable engine + cache.

    Parameters
    ----------
    options:
        A :class:`VerificationOptions` bundle; omitted fields come from the
        defaults.  Keyword overrides are applied on top, so
        ``Verifier(jobs=4, theory="exact")`` works without building the
        options object by hand.
    engine:
        An existing :class:`~repro.engine.scheduler.VerificationEngine` for
        :meth:`check_many` (left running on :meth:`close`); mutually
        exclusive with ``jobs > 1`` in the options, which makes the session
        create — and own — a pool lazily on the first batch.
    cache:
        An existing :class:`~repro.engine.cache.ResultCache`; by default a
        cache is opened at ``options.cache_dir`` (if set) on first use.

    Several threads may share one session: their checks overlap, sharing
    the engine, the cache and the analysis contexts.
    """

    def __init__(self, options: VerificationOptions | None = None, *, engine=None, cache=None, **overrides):
        if options is None:
            options = VerificationOptions(**overrides)
        elif overrides:
            options = options.replace(**overrides)
        if engine is not None and options.jobs != 1:
            raise ValueError("pass either jobs>1 in the options or an engine, not both")
        self.options = options
        self._engine = engine
        self._owns_engine = False
        self._cache = cache
        self._closed = False
        self._lock = threading.Lock()
        self._contexts: dict[str, object] = {}
        self._job_seq = itertools.count(1)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the session's own worker pool (if one was created)."""
        with self._lock:
            self._closed = True
            if self._owns_engine and self._engine is not None:
                self._engine.shutdown()
                self._engine = None
                self._owns_engine = False

    def __enter__(self) -> "Verifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-timing dependent
        # Safety net for sessions used without the context manager: an
        # owned worker pool must not outlive the session object.
        try:
            self.close()
        except Exception:
            pass

    @property
    def engine(self):
        """The session's engine (``None`` until a batch fans out).

        :meth:`check` never starts a pool, whatever ``jobs`` says: a single
        check runs serially on the calling thread.
        """
        return self._engine

    def _engine_for_call(self):
        with self._lock:
            if self._closed:
                raise RuntimeError("this Verifier session is closed")
            if self._engine is None and self.options.jobs > 1:
                from repro.engine.scheduler import VerificationEngine

                self._engine = VerificationEngine(jobs=self.options.jobs, retry=self.options.retry)
                self._owns_engine = True
            return self._engine

    def _cache_for_call(self):
        with self._lock:
            if self._cache is None and self.options.cache_dir is not None:
                from repro.engine.cache import ResultCache

                self._cache = ResultCache(self.options.cache_dir)
            return self._cache

    @property
    def cache(self):
        """The session's result cache (``None`` until a check opens one)."""
        return self._cache

    def analysis_context(self, protocol):
        """The session's shared :class:`~repro.constraints.context.AnalysisContext`.

        One context per protocol (by content hash), reused across every
        check of the session.
        """
        from repro.constraints.context import AnalysisContext
        from repro.engine.cache import protocol_content_hash

        key = protocol_content_hash(protocol)
        with self._lock:
            context = self._contexts.get(key)
            if context is None:
                context = AnalysisContext(protocol).seed_protocol_key(key)
                if len(self._contexts) >= _MAX_CONTEXTS:
                    self._contexts.pop(next(iter(self._contexts)))
                self._contexts[key] = context
            return context

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def check(
        self,
        protocol,
        properties: Sequence[str] | str | None = None,
        *,
        predicate=None,
        on_event=None,
    ) -> VerificationReport:
        """Check the requested properties of one protocol, on this thread.

        ``properties`` names come from the registry
        (:func:`repro.api.properties.available_properties`); the default is
        ``["ws3"]``.  ``predicate`` overrides the protocol's documented
        ``metadata["predicate"]`` for the ``"correctness"`` property.
        ``on_event`` receives each :class:`~repro.service.events.ProgressEvent`
        of the check as it happens (the CLI's ``--progress``).
        """
        self._check_open()
        names = normalize_properties(properties)
        job = check_job(f"job-{next(self._job_seq)}", protocol, names, predicate)
        return self._run_inline(job, on_event)

    def check_many(
        self,
        protocols: Iterable,
        properties: Sequence[str] | str | None = None,
        *,
        on_event=None,
    ):
        """Check many protocols, with across-protocol fan-out and caching.

        Returns a :class:`~repro.engine.batch.BatchResult` whose items carry
        full :class:`VerificationReport` objects.  Protocols appearing more
        than once (by content hash) are verified once; with a cache
        configured, known verdicts are served from disk.
        """
        self._check_open()
        names = normalize_properties(properties)
        job = batch_job(f"job-{next(self._job_seq)}", list(protocols), names)
        return self._run_inline(job, on_event)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this Verifier session is closed")

    def _run_inline(self, job: Job, on_event):
        """Run a fresh job on this thread; a failure re-raises the original exception."""
        if on_event is not None:
            job.subscribe(on_event)
        job.record_event(queued_event(job))
        job.mark_running()
        self.run_job(job)
        if job.status is JobStatus.FAILED:
            raise job.error
        if job.status is JobStatus.CANCELLED:
            raise JobCancelledError(job.id)
        return job.result

    def run_job(self, job: Job, before_finish=None) -> None:
        """Run an admitted job (``job.mark_running()`` returned True) to its end, on this thread.

        The one job lifecycle, shared by :meth:`check`, :meth:`check_many`
        and the service's dispatcher threads: bind the thread to the job,
        record ``job_started``, run the check or the batch, map the outcome
        (cancellation and a batch's spent budget to ``cancelled``, any other
        exception to ``failed``), then finish the job with its
        ``job_finished`` event, which stamps the event trail into the
        result's statistics.  ``before_finish(job, status, result, error)``
        runs before the result becomes visible; the service journals the
        outcome there, write-ahead.
        """
        start = time.perf_counter()
        binding = JobBinding(
            job.id,
            record=job.record_event,
            should_cancel=lambda: job.cancel_requested,
            budget=self.options.retry.job_timeout,
        )
        result = error = None
        with monitor.bound_to_job(binding):
            job.record_event(JobStarted(job_id=job.id))
            payload = job.payload
            try:
                if job.kind == "batch":
                    result = self._run_batch(payload["protocols"], payload["properties"])
                else:
                    result = self._check_cached(
                        payload["protocol"], payload["properties"], payload["predicate"]
                    )
                status = JobStatus.DONE
            except JobCancelledError:
                status = JobStatus.CANCELLED
            except BaseException as failure:
                status, error = JobStatus.FAILED, failure
        if before_finish is not None:
            before_finish(job, status, result, error)
        job.finish(status, result=result, error=error, elapsed=time.perf_counter() - start)

    def _check_cached(self, protocol, names: tuple, predicate) -> VerificationReport:
        """One check, served from the result cache when possible.

        Single checks share the batch path's cache keying exactly
        (:func:`~repro.engine.batch.batch_cache_options`), so a daemon's
        ``submit`` traffic, ``check_many`` batches and earlier runs all hit
        the same entries.
        """
        cache = self._cache_for_call()
        if cache is None:
            return self.run_check(protocol, names, predicate=predicate)
        from repro.engine.batch import batch_cache_options
        from repro.engine.cache import ResultCache, protocol_content_hash
        from repro.engine.scheduler import ENGINE_VERSION

        effective = predicate
        if effective is None and "correctness" in names:
            effective = protocol.metadata.get("predicate")
        content_hash = protocol_content_hash(protocol)
        key = ResultCache.entry_key(
            content_hash, ENGINE_VERSION, batch_cache_options(names, self.options, effective)
        )
        cached = cache.get(key)
        if cached is not None:
            monitor.emit(
                lambda job_id: CacheHit(
                    job_id=job_id, protocol_name=protocol.name, protocol_hash=content_hash
                )
            )
            report = VerificationReport.from_dict(cached)
            report.statistics["from_cache"] = True
            return report
        report = self.run_check(protocol, names, predicate=predicate)
        if not report.partial:
            # A partial report decided nothing for its unfinished properties;
            # caching it would serve the indecision forever.
            cache.put(key, report.to_dict())
        return report

    def run_check(self, protocol, names: Sequence[str], *, predicate=None) -> VerificationReport:
        """Check ``names`` on one protocol, emitting property-stage events.

        The serial core of every check (and of ``run_batch``'s serial
        path); it emits events only under a job binding (without one it
        degrades to the plain check).

        With ``options.trace`` the whole check runs under a span sink and
        the finished report embeds the span tree (``statistics["trace"]``)
        next to the progress-event trail — unless the caller already
        collects spans (a traced batch, a traced engine worker), in which
        case the check's ``job`` span joins the caller's tree instead.
        ``options.profile`` adds per-phase wall/CPU timing and a
        ``cProfile`` capture of this thread (``statistics["profile"]``).
        Both are execution-only: the verdicts and artifacts are identical
        to an uninstrumented run.
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

    def _run_batch(self, protocols: list, names: tuple):
        """Run a batch; with ``options.trace`` its span tree is one rooted tree.

        The ``batch`` root span holds the ``engine.wave`` span, the adopted
        worker ``subproblem`` spans and, below them, each protocol's ``job``
        span; it lands in ``batch.statistics["trace"]``.
        """
        from repro.engine.batch import run_batch

        def run():
            return run_batch(
                protocols,
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
            with obs_trace.span("batch", protocols=len(protocols), job_id=monitor.current_job_id()):
                batch = run()
        batch.statistics["trace"] = sink.spans()
        if sink.dropped:
            batch.statistics["trace_dropped_spans"] = sink.dropped
        return batch


# ``property_checker`` is re-exported: callers imported it from here.
__all__ = ["DEFAULT_PROPERTIES", "Verifier", "normalize_properties", "property_checker"]
