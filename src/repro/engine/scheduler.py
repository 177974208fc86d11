"""Process-pool scheduler for verification subproblems.

The scheduler executes :class:`~repro.engine.subproblem.Subproblem` batches
("waves") over a pool of worker processes and returns the results in the
deterministic input order, independent of completion timing.  Its one
coordinator is the batch front end (:mod:`repro.engine.batch`), which sends
one ``check-protocol`` subproblem per protocol; each worker verifies its
protocol serially, so a single property check never fans out.

``jobs=1`` never creates a pool: subproblems are solved inline in the
coordinator process.

Fault tolerance.  A worker process dying mid-subproblem (OOM kill,
segfault, ``os._exit``), a subproblem exceeding its per-subproblem deadline
or an external teardown of the shared pool marks the affected positions
*lost*.  With a :class:`~repro.engine.retry.RetryPolicy` the lost positions
are quarantined for a bounded exponential backoff and resubmitted to a
fresh pool — already-collected sibling results are kept, so only the lost
work repeats; retrying never changes a verdict because subproblems are
deterministic.  Once a position exhausts its retry budget (and always, with
the default no-retry policy of bare engines) the failure surfaces as a
clean :class:`EngineError` instead of a hang or a bare ``BrokenProcessPool``
traceback.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from collections.abc import Sequence

from repro.engine import monitor
from repro.engine.retry import NO_RETRY, RetryPolicy
from repro.engine.subproblem import Subproblem, SubproblemResult
from repro.obs import trace
from repro.obs.metrics import REGISTRY
from repro.service.events import SubproblemCompleted, SubproblemDispatched, SubproblemRetried

#: Process-wide mirrors of the per-engine statistics (``GET /metricsz``)
#: plus the per-kind subproblem latency histogram harvested from result
#: envelopes (worker-side wall clock, so pool queueing is excluded).
_ENGINE_EVENTS = REGISTRY.counter(
    "repro_engine_events_total",
    "Engine scheduler events: waves, subproblems, retries, worker deaths, timeouts",
)
_SUBPROBLEM_SECONDS = REGISTRY.histogram(
    "repro_subproblem_seconds",
    "Worker-side subproblem solve time, by subproblem kind",
)

#: Bumped whenever a change to the engine or the verification layer can
#: alter verdicts, certificates or counterexamples; part of every result
#: cache key, so stale entries from older engines are never served.
#: "5": job-oriented service — envelopes carry job ids, reports embed the
#: progress-event trail in their statistics, AnalysisContext ships the
#: state-delta basis to workers.  (Retry/timeout handling is execution-only
#: and deliberately does not bump the version: a retried run returns the
#: same verdicts and artifacts as an undisturbed one.)
#: "6": incremental constraint IR — scoped deltas with base-level cut
#: promotion change the refinement sequences (and hence the reported
#: refinement lists/statistics) even though verdicts are unchanged, so
#: entries from older engines must not be served.
#: "7": observability — traced runs embed the span tree in
#: ``report.statistics["trace"]`` and subproblem envelopes carry worker
#: spans, so report payloads from older engines differ in shape.
#: "8": one execution path per property — the intra-protocol fan-out and
#: the rebuild-per-scope path are gone, so entries a parallel or
#: non-incremental run stored (with their different refinement trails and
#: statistics) must not be served.
ENGINE_VERSION = "8"


class EngineError(RuntimeError):
    """A subproblem could not be completed (worker death, timeout, ...)."""


class _RoundOutcome:
    """What one dispatch round of a wave left behind."""

    __slots__ = ("lost", "reasons", "culprits")

    def __init__(self):
        self.lost: list[int] = []
        self.reasons: dict[int, str] = {}
        self.culprits: set[int] = set()

    def mark_lost(self, position: int, reason: str, culprit: bool) -> None:
        self.lost.append(position)
        self.reasons[position] = reason
        if culprit:
            self.culprits.add(position)


class VerificationEngine:
    """Schedules verification subproblems over a process pool.

    Parameters
    ----------
    jobs:
        Number of worker processes.  ``1`` solves everything inline in the
        current process (no pool, no pickling) — the exact serial code path.
    wave_timeout:
        Optional per-wave timeout in seconds; a wave that exceeds it raises
        :class:`EngineError` instead of blocking forever.  The wave budget
        spans retries (a retried wave does not get a fresh clock).
    retry:
        A :class:`~repro.engine.retry.RetryPolicy`.  Bare engines default
        to :data:`~repro.engine.retry.NO_RETRY` (the historical fail-fast
        behaviour); the service passes ``options.retry``.
    """

    def __init__(
        self,
        jobs: int = 1,
        wave_timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.wave_timeout = wave_timeout
        self.retry = NO_RETRY if retry is None else retry
        self._executor: concurrent.futures.ProcessPoolExecutor | None = None
        # Concurrent service jobs share one engine from different dispatcher
        # threads; pool creation must not race (a lost pool would leak its
        # worker processes) and the statistics counters are read-modify-write.
        self._executor_lock = threading.Lock()
        self._statistics_lock = threading.Lock()
        self.statistics = {
            "waves": 0,
            "subproblems": 0,
            "retries": 0,
            "worker_deaths": 0,
            "timeouts": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def _count(self, counter: str, amount: int = 1) -> None:
        """Thread-safe statistics increment (dispatcher threads share engines)."""
        with self._statistics_lock:
            self.statistics[counter] += amount
        _ENGINE_EVENTS.inc(amount, event=counter)

    def _ensure_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = concurrent.futures.ProcessPoolExecutor(max_workers=self.jobs)
            return self._executor

    def shutdown(self, kill: bool = False) -> None:
        """Tear down the pool; ``kill`` also terminates the worker processes.

        Plain shutdown lets running tasks finish in the background.  After a
        timeout the wedged worker would keep burning CPU forever, so the
        timeout path passes ``kill=True`` and the workers are terminated
        outright (reaching into the executor's process table is the only way
        ProcessPoolExecutor offers).
        """
        with self._executor_lock:
            executor = self._executor
            self._executor = None
        if executor is not None:
            processes = list(getattr(executor, "_processes", {}).values()) if kill else []
            executor.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                process.terminate()

    def __enter__(self) -> "VerificationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_wave(self, subproblems: Sequence[Subproblem]) -> list[SubproblemResult]:
        """Solve one wave of subproblems; results are in input order."""
        if not subproblems:
            return []
        # Wave boundary: the one place the engine honours cooperative job
        # cancellation.  A cancelled job never dispatches another wave, so
        # its share of the pool frees up for concurrently scheduled jobs.
        monitor.check_cancelled()
        with self._statistics_lock:
            self.statistics["waves"] += 1
            self.statistics["subproblems"] += len(subproblems)
            engine_wave = self.statistics["waves"]
        _ENGINE_EVENTS.inc(event="waves")
        _ENGINE_EVENTS.inc(len(subproblems), event="subproblems")
        # Event streams number waves per *job* (the engine-global counter
        # interleaves concurrent jobs); plain engine use keeps the global.
        wave = monitor.next_wave_index(fallback=engine_wave)
        if trace.tracing_active() and self.parallel:
            # Workers cannot see the coordinator's sink; the envelope flag
            # asks them to collect locally and ship spans home for adoption.
            for subproblem in subproblems:
                subproblem.params.setdefault("trace", True)
        with trace.span("engine.wave", index=wave, size=len(subproblems)):
            return self._run_wave_body(subproblems, wave)

    def _run_wave_body(
        self, subproblems: Sequence[Subproblem], wave: int
    ) -> list[SubproblemResult]:
        if not self.parallel:
            return self._run_inline(subproblems, wave)

        results: list[SubproblemResult | None] = [None] * len(subproblems)
        outstanding = list(range(len(subproblems)))
        attempts = dict.fromkeys(outstanding, 1)
        wave_deadline = (
            None if self.wave_timeout is None else time.monotonic() + self.wave_timeout
        )
        while True:
            outcome = self._run_round(subproblems, outstanding, results, wave, wave_deadline)
            if not outcome.lost:
                return results
            # Only the culprit of a teardown burns retry budget; peers that
            # were merely caught in the pool teardown are resubmitted free
            # (every faulty round has at least one culprit, so the loop
            # still terminates).
            for position in outcome.culprits:
                attempts[position] += 1
            exhausted = sorted(
                position
                for position in outcome.culprits
                if attempts[position] > self.retry.max_retries + 1
            )
            if exhausted:
                position = exhausted[0]
                reason = outcome.reasons[position]
                if self.retry.enabled:
                    raise EngineError(
                        f"{reason}; retries exhausted after {attempts[position] - 1} attempt(s)"
                    )
                raise EngineError(reason)
            outstanding = sorted(outcome.lost)
            self._count("retries", len(outstanding))
            delay = max(self.retry.backoff_delay(attempts[p] - 1) for p in outstanding)
            for position in outstanding:
                self._emit_retried(
                    subproblems[position],
                    attempts[position],
                    delay,
                    outcome.reasons[position],
                )
            if delay > 0:
                # Quarantine: give a transiently sick host (OOM pressure, a
                # dying sibling) room to recover before the fresh pool spawns.
                time.sleep(delay)

    def _run_round(
        self,
        subproblems: Sequence[Subproblem],
        positions: Sequence[int],
        results: list,
        wave: int,
        wave_deadline: float | None,
    ) -> _RoundOutcome:
        """Dispatch ``positions`` once and collect in order; losses are recorded.

        On the first worker death / deadline overrun / external cancellation
        the pool is torn down and the round switches to *harvest* mode:
        already-completed siblings keep their results, everything else joins
        the lost set (as non-culprits) for the caller to resubmit.
        """
        from repro.engine.worker import solve_subproblem

        executor = self._ensure_executor()
        try:
            futures = {
                position: executor.submit(solve_subproblem, subproblems[position])
                for position in positions
            }
        except RuntimeError as error:  # pool already broken/shut down
            self.shutdown()
            raise EngineError(f"could not dispatch subproblems: {error}") from error
        dispatched_at = time.monotonic()
        for position in positions:
            self._emit_dispatched(subproblems[position], wave)

        outcome = _RoundOutcome()
        pending = dict(futures)
        subproblem_timeout = self.retry.subproblem_timeout
        teardown_reason = "{label} was abandoned when the worker pool was torn down mid-wave"
        try:
            for position in positions:
                future = futures[position]
                label = subproblems[position].label
                if outcome.lost:
                    # Harvest mode: the pool is gone; keep whatever finished
                    # cleanly, requeue the rest as teardown victims.
                    pending.pop(position, None)
                    if future.done() and not future.cancelled() and future.exception() is None:
                        results[position] = future.result()
                        self._emit_completed(subproblems[position], results[position])
                    else:
                        outcome.mark_lost(
                            position, teardown_reason.format(label=label), culprit=False
                        )
                    continue
                deadline = wave_deadline
                if subproblem_timeout is not None:
                    own_deadline = dispatched_at + subproblem_timeout
                    deadline = own_deadline if deadline is None else min(deadline, own_deadline)
                remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
                try:
                    results[position] = future.result(timeout=remaining)
                except concurrent.futures.CancelledError:
                    # The engine never cancels its own futures, so this is
                    # external — a sibling job's failure tore the shared pool
                    # down.  The position is lost (and, under a retry
                    # policy, resubmitted to a fresh pool).
                    self.shutdown()
                    outcome.mark_lost(
                        position,
                        f"{label} was cancelled externally "
                        "(the shared worker pool was shut down mid-wave)",
                        culprit=True,
                    )
                    pending.pop(position, None)
                    continue
                except concurrent.futures.TimeoutError as error:
                    self.shutdown(kill=True)
                    pending.pop(position, None)
                    if wave_deadline is not None and time.monotonic() >= wave_deadline:
                        # The whole-wave budget is spent; retrying would
                        # overdraw it, so this surfaces immediately.
                        raise EngineError(
                            f"wave exceeded its {self.wave_timeout}s budget while waiting on "
                            f"{label}"
                        ) from error
                    self._count("timeouts")
                    outcome.mark_lost(
                        position,
                        f"{label} exceeded its {subproblem_timeout}s deadline "
                        "(the worker was killed)",
                        culprit=True,
                    )
                    continue
                except concurrent.futures.process.BrokenProcessPool:
                    self._count("worker_deaths")
                    self.shutdown(kill=True)
                    pending.pop(position, None)
                    outcome.mark_lost(
                        position,
                        f"a worker process died while solving {label}; "
                        "the remaining subproblems of this wave were abandoned",
                        culprit=True,
                    )
                    continue
                # Any other exception is a deterministic in-task failure:
                # retrying cannot help, so it propagates exactly as in serial
                # order.
                pending.pop(position, None)
                self._emit_completed(subproblems[position], results[position])
        except EngineError:
            self.shutdown()
            raise
        except BaseException:
            for future in pending.values():
                future.cancel()
            raise
        return outcome

    def _run_inline(
        self, subproblems: Sequence[Subproblem], wave: int
    ) -> list[SubproblemResult]:
        from repro.engine.worker import solve_subproblem

        results: list[SubproblemResult] = []
        for position, subproblem in enumerate(subproblems):
            if position:
                # Inline, each subproblem is its own wave boundary: serial
                # jobs observe cancellation between subproblems.
                monitor.check_cancelled()
            self._emit_dispatched(subproblem, wave)
            results.append(solve_subproblem(subproblem))
            self._emit_completed(subproblem, results[-1])
        return results

    @staticmethod
    def _emit_dispatched(subproblem: Subproblem, wave: int) -> None:
        monitor.emit(
            lambda job_id: SubproblemDispatched(
                job_id=subproblem.job_id or job_id,
                kind=subproblem.kind,
                index=subproblem.index,
                wave=wave,
            )
        )

    @staticmethod
    def _emit_completed(subproblem: Subproblem, result: SubproblemResult) -> None:
        _SUBPROBLEM_SECONDS.observe(
            float(result.statistics.get("time", 0.0)), kind=subproblem.kind
        )
        # Worker-side spans ride home in the result envelope; adopt them
        # under the coordinator's current span (the ``engine.wave`` span that
        # dispatched them), keeping one rooted tree.
        if result.spans:
            trace.adopt_spans(result.spans)
        monitor.emit(
            lambda job_id: SubproblemCompleted(
                job_id=subproblem.job_id or job_id,
                kind=subproblem.kind,
                index=subproblem.index,
                verdict=result.verdict,
                time_seconds=float(result.statistics.get("time", 0.0)),
            )
        )

    @staticmethod
    def _emit_retried(
        subproblem: Subproblem, attempt: int, delay: float, reason: str
    ) -> None:
        monitor.emit(
            lambda job_id: SubproblemRetried(
                job_id=subproblem.job_id or job_id,
                kind=subproblem.kind,
                index=subproblem.index,
                attempt=attempt,
                delay_seconds=delay,
                reason=reason,
            )
        )
