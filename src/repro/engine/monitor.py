"""Thread-local job instrumentation: progress events and cooperative cancellation.

:meth:`Verifier.run_job <repro.api.verifier.Verifier.run_job>` *binds* the
thread that runs a job to it with :func:`bound_to_job`: the caller's own
thread for ``Verifier.check``/``check_many``, a dispatcher thread for a
service job.  Everything that executes under the binding — the engine
scheduler, the serial refinement loops of the verification layer — can then

* **emit progress events** without threading a callback through every
  signature (:func:`emit`); events are constructed lazily, so code running
  outside any job (the ``*_impl`` procedures called directly, plain library
  use) pays one thread-local lookup and nothing else;
* **observe cancellation requests** (:func:`check_cancelled`), raising
  :class:`JobCancelledError` at the cooperative checkpoints: engine wave
  boundaries, per-subproblem steps of the inline path, pattern/strategy
  iterations of the property checks.

Because the binding is thread-local, concurrent jobs sharing one engine (and
one worker pool) cannot observe each other's events or cancellation flags:
the envelope's ``job_id`` and the emitting thread always agree.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from contextlib import contextmanager


class JobCancelledError(RuntimeError):
    """Raised at a cooperative checkpoint after a job's cancellation was requested."""

    def __init__(self, job_id: str, message: str | None = None):
        super().__init__(message or f"verification job {job_id!r} was cancelled")
        self.job_id = job_id


class JobDeadlineExceeded(JobCancelledError):
    """Raised at a cooperative checkpoint once the job's wall-clock budget is spent.

    A subclass of :class:`JobCancelledError` so every existing cancellation
    checkpoint doubles as a deadline checkpoint; the check pipeline catches
    it *before* the generic handler and converts the remaining properties to
    ``partial`` verdicts instead of cancelling the job.
    """

    def __init__(self, job_id: str, budget: float):
        super().__init__(
            job_id, f"verification job {job_id!r} exceeded its {budget}s budget"
        )
        self.budget = budget


class JobBinding:
    """What a bound thread knows about its job.

    ``record`` receives fully constructed
    :class:`~repro.service.events.ProgressEvent` objects (the job record
    stamps sequence numbers and timestamps); ``should_cancel`` is polled at
    the cooperative checkpoints.
    """

    __slots__ = ("job_id", "record", "should_cancel", "deadline", "budget", "_backends_seen", "_waves")

    def __init__(
        self,
        job_id: str,
        record: Callable[[object], None],
        should_cancel: Callable[[], bool] = lambda: False,
        budget: float | None = None,
    ):
        self.job_id = job_id
        self.record = record
        self.should_cancel = should_cancel
        # Whole-job wall-clock budget (options.retry.job_timeout): the
        # monotonic deadline is fixed at binding time, before any work runs.
        self.budget = budget
        self.deadline = None if budget is None else time.monotonic() + budget
        self._backends_seen: set[tuple[str, str]] = set()
        self._waves = 0


_LOCAL = threading.local()


def current_binding() -> JobBinding | None:
    """The binding of the calling thread, or ``None`` outside any job."""
    return getattr(_LOCAL, "binding", None)


def current_job_id() -> str | None:
    """The job id the calling thread is working for, or ``None``."""
    binding = current_binding()
    return binding.job_id if binding is not None else None


@contextmanager
def bound_to_job(binding: JobBinding):
    """Bind the calling thread to a job for the duration of the block."""
    previous = getattr(_LOCAL, "binding", None)
    _LOCAL.binding = binding
    try:
        yield binding
    finally:
        _LOCAL.binding = previous


def emit(build_event: Callable[[str], object]) -> None:
    """Emit a progress event if (and only if) the thread is bound to a job.

    ``build_event(job_id)`` constructs the event lazily, so unbound callers —
    the ``*_impl`` procedures called directly, engine use outside a job —
    never pay for event construction.
    """
    binding = current_binding()
    if binding is not None:
        binding.record(build_event(binding.job_id))


def emit_backend_selected(backend: str, scope: str) -> None:
    """Emit one :class:`~repro.service.events.BackendSelected` per (backend, scope).

    Solver construction happens per property check; the
    event stream reports each distinct selection once per job instead of
    once per solver instance.
    """
    binding = current_binding()
    if binding is None:
        return
    key = (backend, scope)
    if key in binding._backends_seen:
        return
    binding._backends_seen.add(key)
    from repro.service.events import BackendSelected

    binding.record(BackendSelected(job_id=binding.job_id, backend=backend, scope=scope))


def emit_backend_degraded(backend: str, fallback: str, reason: str) -> None:
    """Emit a :class:`~repro.service.events.BackendDegraded` for a solver crash."""
    binding = current_binding()
    if binding is None:
        return
    from repro.service.events import BackendDegraded

    binding.record(
        BackendDegraded(
            job_id=binding.job_id, backend=backend, fallback=fallback, reason=reason
        )
    )


def next_wave_index(fallback: int) -> int:
    """The bound job's own 1-based wave counter (``fallback`` when unbound).

    Concurrent jobs share one engine, whose global wave statistic interleaves
    their increments; event streams number waves *per job* so a consumer can
    follow one job's progression.
    """
    binding = current_binding()
    if binding is None:
        return fallback
    binding._waves += 1
    return binding._waves


def emit_refinement_found(kind: str, states, iteration: int) -> None:
    """Emit a :class:`~repro.service.events.RefinementFound` for a CEGAR step."""
    binding = current_binding()
    if binding is None:
        return
    from repro.service.events import RefinementFound

    binding.record(
        RefinementFound(
            job_id=binding.job_id,
            refinement=kind,
            states=sorted(map(repr, states)),
            iteration=iteration,
        )
    )


def check_cancelled() -> None:
    """Raise :class:`JobCancelledError` if the bound job asked to stop.

    A no-op outside any binding, so library code sprinkled with checkpoints
    behaves identically when used without the service.
    """
    binding = current_binding()
    if binding is None:
        return
    if binding.should_cancel():
        raise JobCancelledError(binding.job_id)
    if binding.deadline is not None and time.monotonic() >= binding.deadline:
        raise JobDeadlineExceeded(binding.job_id, binding.budget)
