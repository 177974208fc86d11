"""The unified verification session object.

One :class:`Verifier` owns one :class:`~repro.api.options.VerificationOptions`
bundle and exposes the whole pipeline of the paper through two methods::

    with Verifier(jobs=4) as verifier:
        report = verifier.check(protocol, properties=["ws3", "correctness"])
        batch = verifier.check_many(protocols)

``check`` returns a lossless :class:`~repro.api.report.VerificationReport`
and always runs serially, one refinement loop per property; ``check_many``
fans whole protocols over ``jobs`` worker processes and serves repeat
instances from the content-addressed result cache.

Since the service layer landed, both methods are thin **synchronous facades**
over :class:`~repro.service.service.VerificationService`: ``check`` submits
one job, waits, and returns its report — so the session API and the job API
produce identical verdicts by construction (asserted by the parity tests),
and every report carries the job's progress-event trail in its statistics.
Callers that want the asynchronous surface (non-blocking submission,
priorities, streaming events, cancellation) use the service directly.

The deprecated per-property entry points (``verify_ws3``,
``check_strong_consensus``, ...) remain thin shims over the same underlying
implementations.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.api.options import VerificationOptions
from repro.api.properties import property_checker
from repro.api.report import VerificationReport

#: The default property set of a bare ``verifier.check(protocol)``.
DEFAULT_PROPERTIES = ("ws3",)


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
        cache is opened at ``options.cache_dir`` (if set) on first
        ``check_many`` call.
    """

    def __init__(self, options: VerificationOptions | None = None, *, engine=None, cache=None, **overrides):
        from repro.service.service import VerificationService

        # The service validates the options/engine combination and owns the
        # engine, the cache and the per-protocol analysis contexts; the
        # session is a synchronous view onto it.
        self._service = VerificationService(options, engine=engine, cache=cache, **overrides)
        self.options = self._service.options
        self._closed = False

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the session's own worker pool (if one was created)."""
        self._service.close()
        self._closed = True

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
    def service(self):
        """The underlying :class:`~repro.service.service.VerificationService`.

        The asynchronous surface of the same session: ``submit`` returns a
        :class:`~repro.service.jobs.JobHandle` with streaming events and
        cooperative cancellation, sharing this session's engine, cache and
        analysis contexts.
        """
        return self._service

    @property
    def engine(self):
        """The session's engine (``None`` until a batch fans out).

        :meth:`check` never starts a pool, whatever ``jobs`` says: a single
        check runs serially in the session's dispatcher thread.
        """
        return self._service.engine

    @property
    def _owns_engine(self) -> bool:
        return self._service._owns_engine

    @property
    def _engine(self):
        return self._service._engine

    @property
    def _cache(self):
        return self._service._cache

    def analysis_context(self, protocol):
        """The session's shared :class:`~repro.constraints.context.AnalysisContext`.

        One context per protocol (by content hash), reused across every
        :meth:`check` call of the session.
        """
        return self._service.analysis_context(protocol)

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
        """Check the requested properties of one protocol (synchronously).

        ``properties`` names come from the registry
        (:func:`repro.api.properties.available_properties`); the default is
        ``["ws3"]``.  ``predicate`` overrides the protocol's documented
        ``metadata["predicate"]`` for the ``"correctness"`` property.
        ``on_event`` receives each :class:`~repro.service.events.ProgressEvent`
        of the underlying job as it happens (the CLI's ``--progress``).
        """
        if self._closed:
            raise RuntimeError("this Verifier session is closed")
        handle = self._service.submit(
            protocol, properties=properties, predicate=predicate, subscriber=on_event
        )
        return self._synchronous_result(handle)

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
        if self._closed:
            raise RuntimeError("this Verifier session is closed")
        handle = self._service.submit_batch(protocols, properties=properties, subscriber=on_event)
        return self._synchronous_result(handle)

    @staticmethod
    def _synchronous_result(handle):
        """Wait for a facade job and surface its outcome exactly as serial code would.

        A failed job re-raises the *original* exception (not a wrapper), so
        error behaviour is indistinguishable from the pre-service sessions.
        An interrupt while waiting (Ctrl-C) cancels the job before
        propagating, so the session's ``close()`` — which drains pending
        jobs — returns at the next cooperative checkpoint instead of
        blocking for the remainder of the check.
        """
        from repro.service.jobs import JobStatus

        try:
            handle.wait()
        except BaseException:
            handle.cancel()
            raise
        if handle.status() is JobStatus.FAILED:
            raise handle._job.error
        return handle.result()


# Re-exported for backwards compatibility: property name validation happens
# in the service layer now, but callers imported this from here.
__all__ = ["DEFAULT_PROPERTIES", "Verifier", "property_checker"]
