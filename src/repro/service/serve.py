"""``repro-verify serve``: a stdin/stdout JSON-lines verification daemon.

The serve session speaks a line protocol: every request is one JSON object
on stdin, every output line is one JSON object on stdout.  Output lines are
tagged ``"type": "response"`` (the answer to a request, echoing its optional
``"id"``) or ``"type": "event"`` (a streamed progress event of a job
submitted with ``"stream": true``); the two may interleave, but each line is
self-contained, so clients dispatch on the tag.

Requests
--------

``{"op": "submit", "spec": "majority", "properties": ["ws3"],
"priority": 0, "stream": true}``
    Submit one protocol.  The protocol is named by a ``spec`` (a family
    name, ``family:parameter`` or a JSON file path) or supplied inline as a
    ``protocol`` dictionary (the ``repro.io.serialization`` wire format).
    Responds with the job id immediately; with ``"stream": true`` every
    progress event of the job is pushed as an event line.

``{"op": "submit", "specs": ["majority", "flock-of-birds:6"]}``
    Submit a whole batch as one job (the ``check_many`` semantics: dedup,
    result cache, across-protocol fan-out).

``{"op": "status", "job": "job-1"}``
    Non-blocking status plus the number of events recorded so far.

``{"op": "events", "job": "job-1", "since": 0}``
    Drain the job's event log from sequence number ``since`` (polling
    alternative to ``stream``); responds with the events and the next
    sequence number.  Add ``"wait": true`` (and an optional ``"timeout"``
    in seconds) to long-poll: the response is deferred until at least one
    event past ``since`` exists or the job finishes — this is what makes
    client-side event streams resumable without busy-polling.

``{"op": "cancel", "job": "job-1"}``
    Request cooperative cancellation.

``{"op": "wait", "job": "job-1", "timeout": 5.0}``
    Block until the job finishes (or the timeout elapses).

``{"op": "result", "job": "job-1", "wait": true}``
    The job's lossless result: ``"report"``
    (:meth:`~repro.api.report.VerificationReport.to_dict`) for single
    checks, ``"batch"`` for batch jobs.  Cancelled and failed jobs produce
    an error response instead.

``{"op": "jobs"}`` / ``{"op": "shutdown"}``
    List every job of the session; end the session.

``{"op": "stats"}``
    A snapshot of the serving tier's counters: service statistics (jobs
    submitted/completed/failed/cancelled/recovered), the pending-queue
    depth, result-cache traffic, journal statistics, and — over the
    network tier — the per-server connection/frame/shedding counters
    (mirrored by ``GET /statsz`` on the HTTP adapter).  This is what the
    sharded router scatter-gathers to aggregate fleet health.

``{"op": "metrics"}``
    The process-global observability-registry snapshot (counters, gauges,
    latency histograms) in mergeable form — the machine-readable twin of
    ``GET /metricsz``, which renders it as Prometheus text.  The router
    scatter-gathers this op and sums the per-shard snapshots with
    ``shard`` labels.

EOF on stdin ends the session too; like ``shutdown``, it cancels every job
that has not finished (nobody is left to read the results) — *unless* the
service runs on a durable journal (``repro-verify serve --journal-dir``), in
which case unfinished jobs are deliberately left queued: they are already
journalled, and the next daemon started on the same journal re-enqueues and
finishes them (see :mod:`repro.service.journal`).  Malformed lines and
unknown ops yield ``{"type": "response", "ok": false, "error": ...}`` — the
daemon never dies on bad input.

The same line protocol is served over TCP (and a sibling HTTP adapter) by
:mod:`repro.service.net`, which runs one non-owning :class:`ServeSession`
per connection over a shared service.
"""

from __future__ import annotations

import json
import logging
import threading
import time

from repro.engine.monitor import JobCancelledError
from repro.io.loading import ProtocolLoadError, resolve_protocol_spec
from repro.io.serialization import protocol_from_dict
from repro.obs.metrics import REGISTRY
from repro.service.jobs import JobHandle, JobNotFinished
from repro.service.service import VerificationService

logger = logging.getLogger(__name__)

#: Per-op request service time, across every transport that feeds
#: :meth:`ServeSession.handle_line` (stdio pipe, TCP line protocol, the
#: HTTP adapter).  Blocking ops (``wait``, long-polling ``events``) include
#: their wait time — this measures what the *client* experienced.
_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_net_request_seconds",
    "Request service time per serve-protocol op",
)


class ServeError(ValueError):
    """A request that cannot be served (bad op, unknown job, bad protocol)."""


class OverloadedError(ServeError):
    """The server is at capacity; the request was shed and may be retried.

    Raised by admission control (see :meth:`ServeSession._admit_job` and the
    network tier in :mod:`repro.service.net`); rendered as an error response
    carrying ``"overloaded": true``, ``"retryable": true`` and a
    ``"retry_after"`` hint, so clients back off instead of hammering.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


def batch_to_payload(batch) -> dict:
    """The lossless JSON payload of a :class:`~repro.engine.batch.BatchResult`."""
    return {
        "items": [
            {
                "protocol": item.protocol_name,
                "hash": item.protocol_hash,
                "ok": item.ok,
                "from_cache": item.from_cache,
                "time_seconds": item.time_seconds,
                "report": item.report.to_dict(),
            }
            for item in batch
        ],
        "statistics": batch.statistics,
    }


class ServeSession:
    """One JSON-lines session over a verification service.

    The request loop runs on the calling thread; streamed events arrive from
    dispatcher threads, so every output line goes through one lock and is
    flushed immediately (clients block on complete lines).

    ``owns_service=True`` (the stdio daemon) means the session's end is the
    daemon's end: the service is closed and — without a journal — every
    unfinished job is cancelled.  With ``owns_service=False`` (one network
    connection of a shared daemon, see :mod:`repro.service.net`) the service
    keeps running; only the jobs *this* session submitted are cancelled when
    the connection goes away (journalled services keep even those: they are
    durable and pollable from other connections).
    """

    def __init__(
        self,
        service: VerificationService,
        input_stream,
        output_stream,
        *,
        owns_service: bool = True,
    ):
        self.service = service
        self.owns_service = owns_service
        self._input = input_stream
        self._output = output_stream
        self._output_lock = threading.Lock()
        self._session_jobs: list[str] = []
        self._session_closed = False

    # ------------------------------------------------------------------
    # Output framing
    # ------------------------------------------------------------------

    def _write(self, payload: dict) -> None:
        line = json.dumps(payload, sort_keys=True)
        with self._output_lock:
            self._output.write(line + "\n")
            self._output.flush()

    def _respond(self, request_id, **payload) -> None:
        response = {"type": "response", "ok": True, **payload}
        if request_id is not None:
            response["id"] = request_id
        self._write(response)

    def _fail(self, request_id, error: str, **extra) -> None:
        response = {"type": "response", "ok": False, "error": error, **extra}
        if request_id is not None:
            response["id"] = request_id
        self._write(response)

    def _stream_event(self, event) -> None:
        self._write({"type": "event", "job": event.job_id, "event": event.to_dict()})

    # ------------------------------------------------------------------
    # The request loop
    # ------------------------------------------------------------------

    def run(self) -> int:
        """Serve until EOF or a ``shutdown`` request; returns an exit code."""
        try:
            for line in self._input:
                if self.handle_line(line):
                    break
        finally:
            self.close_session()
        return 0

    def handle_line(self, line: str) -> bool:
        """Serve one raw request line; True when the session should end.

        This is the transport-agnostic core of the session: the stdio loop
        in :meth:`run` and each network connection of
        :class:`~repro.service.net.NetworkServer` both feed it complete
        lines.  It never raises on bad input — every failure becomes an
        error response.
        """
        line = line.strip()
        if not line:
            return False
        request_id = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServeError("each request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op")
            handler = self._HANDLERS.get(op)
            if handler is None:
                known = ", ".join(sorted(self._HANDLERS))
                raise ServeError(f"unknown op {op!r}; known ops: {known}")
            started = time.perf_counter()
            try:
                return bool(handler(self, request, request_id))
            finally:
                _REQUEST_SECONDS.observe(time.perf_counter() - started, op=str(op))
        except OverloadedError as error:
            # Load shedding is explicit and retryable: the client learns it
            # was turned away (not that its request was malformed) and when
            # to come back.
            self._fail(
                request_id,
                str(error),
                overloaded=True,
                retryable=True,
                retry_after=error.retry_after,
            )
        # TypeError covers wrongly-typed request fields (e.g. a
        # number where a property list belongs): bad input of any
        # shape yields an error response, never a dead daemon.
        except (
            ServeError,
            ProtocolLoadError,
            json.JSONDecodeError,
            ValueError,
            TypeError,
        ) as error:
            self._fail(request_id, str(error))
        return False

    def close_session(self) -> None:
        """End the session exactly once (idempotent).

        Owning sessions close the service; shared-service sessions only
        withdraw their own jobs.  Either way a journalled backlog survives —
        durability beats cancellation.
        """
        if self._session_closed:
            return
        self._session_closed = True
        if not self.owns_service:
            # One connection of a shared daemon went away.  Without a
            # journal its unread jobs are garbage (nobody can fetch the
            # results; other sessions never learned the ids) — cancel them.
            # Other sessions' jobs are untouched.
            if self.service.journal is None:
                for job_id in self._session_jobs:
                    try:
                        handle = self.service.job(job_id)
                    except KeyError:
                        continue
                    if not handle.status().finished:
                        handle.cancel()
            return
        if self.service.journal is not None:
            # Durable mode: the backlog is journalled, so ending the
            # session must not throw it away — leave unfinished jobs
            # queued (close without draining) and let the next daemon on
            # this journal resume them.
            resumable = self.service.pending_count()
            self.service.close(drain=False)
            if resumable:
                logger.info(
                    "serve session ended with %d job(s) left journalled and resumable",
                    resumable,
                )
        else:
            # However the session ends (EOF, shutdown op, a crashed
            # client), nobody is reading results any more: cancel
            # whatever has not started rather than verifying a dead
            # client's backlog.
            self._cancel_pending()
            self.service.close()

    def _cancel_pending(self) -> None:
        for handle in self.service.jobs():
            if not handle.status().finished:
                handle.cancel()

    # ------------------------------------------------------------------
    # Handlers (returning True ends the session)
    # ------------------------------------------------------------------

    def _admit_job(self, request: dict) -> None:
        """Admission-control hook, called before a submit touches the service.

        The base session admits everything (a pipe has exactly one client);
        network sessions raise :class:`OverloadedError` here when the job
        queue is at capacity, shedding load instead of growing without
        bound.
        """

    def _handle_submit(self, request: dict, request_id) -> bool:
        self._admit_job(request)
        properties = request.get("properties")
        priority = int(request.get("priority", 0))
        subscriber = self._stream_event if request.get("stream") else None
        if "specs" in request:
            protocols = [resolve_protocol_spec(spec) for spec in request["specs"]]
            handle = self.service.submit_batch(
                protocols, properties=properties, priority=priority, subscriber=subscriber
            )
        else:
            handle = self.service.submit(
                self._load_protocol(request),
                properties=properties,
                priority=priority,
                subscriber=subscriber,
            )
        self._session_jobs.append(handle.job_id)
        self._respond(request_id, op="submit", job=handle.job_id, kind=handle.kind)
        return False

    def _load_protocol(self, request: dict):
        if "protocol" in request:
            try:
                return protocol_from_dict(request["protocol"])
            except Exception as error:
                raise ServeError(f"bad inline protocol: {error}") from error
        spec = request.get("spec")
        if not spec:
            raise ServeError("submit needs a 'spec', 'specs' or an inline 'protocol'")
        return resolve_protocol_spec(spec)

    def _handle(self, request: dict) -> JobHandle:
        job_id = request.get("job")
        if not job_id:
            raise ServeError("this op needs a 'job' id")
        try:
            return self.service.job(job_id)
        except KeyError:
            raise ServeError(f"unknown job {job_id!r}") from None

    def _handle_status(self, request: dict, request_id) -> bool:
        handle = self._handle(request)
        self._respond(
            request_id,
            op="status",
            job=handle.job_id,
            kind=handle.kind,
            status=handle.status().value,
            events=len(handle.events_so_far()),
        )
        return False

    def _handle_events(self, request: dict, request_id) -> bool:
        handle = self._handle(request)
        since = int(request.get("since", 0))
        if request.get("wait"):
            # Long poll: block until something past `since` exists (or the
            # job finished, or the timeout ran out) instead of making the
            # client busy-poll an unchanged log.
            timeout = request.get("timeout")
            handle.wait_for_events(since, timeout=None if timeout is None else float(timeout))
        events = [event.to_dict() for event in handle.events_so_far()[since:]]
        self._respond(
            request_id,
            op="events",
            job=handle.job_id,
            events=events,
            next=since + len(events),
            status=handle.status().value,
        )
        return False

    def _handle_cancel(self, request: dict, request_id) -> bool:
        handle = self._handle(request)
        cancelled = handle.cancel()
        self._respond(request_id, op="cancel", job=handle.job_id, cancelled=cancelled)
        return False

    def _handle_wait(self, request: dict, request_id) -> bool:
        handle = self._handle(request)
        timeout = request.get("timeout")
        finished = handle.wait(timeout=None if timeout is None else float(timeout))
        self._respond(
            request_id, op="wait", job=handle.job_id, finished=finished, status=handle.status().value
        )
        return False

    def _handle_result(self, request: dict, request_id) -> bool:
        handle = self._handle(request)
        if request.get("wait", True):
            timeout = request.get("timeout")
            handle.wait(timeout=None if timeout is None else float(timeout))
        try:
            result = handle.result()
        except JobNotFinished:
            self._fail(request_id, f"job {handle.job_id!r} is still {handle.status().value}")
            return False
        except JobCancelledError:
            self._fail(request_id, f"job {handle.job_id!r} was cancelled")
            return False
        except Exception as error:
            self._fail(request_id, f"job {handle.job_id!r} failed: {error}")
            return False
        payload = {"op": "result", "job": handle.job_id, "status": handle.status().value}
        if handle.kind == "batch":
            payload["batch"] = batch_to_payload(result)
        else:
            payload["report"] = result.to_dict()
        self._respond(request_id, **payload)
        return False

    def _handle_jobs(self, request: dict, request_id) -> bool:
        self._respond(
            request_id,
            op="jobs",
            jobs=[
                {
                    "job": handle.job_id,
                    "kind": handle.kind,
                    "status": handle.status().value,
                    "priority": handle.priority,
                }
                for handle in self.service.jobs()
            ],
        )
        return False

    def _stats_payload(self) -> dict:
        """The serving tier's counters; network sessions add server stats."""
        from repro.constraints.incremental import incremental_statistics

        service = self.service
        payload = {
            "service": dict(service.statistics),
            "pending_jobs": service.pending_count(),
            "cache": service.cache_statistics(),
            "journal": dict(service.journal.statistics) if service.journal is not None else None,
            # Process-wide incremental counters (cut promotion, core
            # retention) — the router's scatter-gather aggregates the
            # per-shard retention rates from this block.
            "incremental": incremental_statistics(),
        }
        engine = service.engine
        if engine is not None:
            payload["engine"] = dict(getattr(engine, "statistics", {}) or {})
        return payload

    def _handle_stats(self, request: dict, request_id) -> bool:
        self._respond(request_id, op="stats", stats=self._stats_payload())
        return False

    def _metrics_payload(self) -> dict:
        """The process metrics-registry snapshot (mergeable form).

        The router session overrides this with the fleet aggregation:
        per-shard snapshots scatter-gathered over this very op, stamped
        with ``shard`` labels and summed (see
        :class:`repro.service.router.RouterSession`).  ``GET /metricsz``
        renders the payload as Prometheus text.
        """
        return REGISTRY.snapshot()

    def _handle_metrics(self, request: dict, request_id) -> bool:
        self._respond(request_id, op="metrics", metrics=self._metrics_payload())
        return False

    def _handle_shutdown(self, request: dict, request_id) -> bool:
        # Cancel whatever is still pending: a shutdown must not hang on a
        # long queue (running jobs stop at their next checkpoint).  With a
        # journal the queue is durable instead — close_session() leaves it
        # for the next daemon rather than cancelling.  Shared-service
        # sessions only end their own connection (close_session withdraws
        # their jobs); daemon shutdown is the drain path's job.
        if self.owns_service and self.service.journal is None:
            self._cancel_pending()
        self._respond(request_id, op="shutdown")
        return True

    _HANDLERS = {
        "submit": _handle_submit,
        "status": _handle_status,
        "events": _handle_events,
        "cancel": _handle_cancel,
        "wait": _handle_wait,
        "result": _handle_result,
        "jobs": _handle_jobs,
        "stats": _handle_stats,
        "metrics": _handle_metrics,
        "shutdown": _handle_shutdown,
    }
