"""The serve protocol: one op table, one dispatcher, one session class.

Every surface of the serving tier answers the same JSON ops:
``repro-verify serve`` over stdin/stdout, the TCP line protocol and the HTTP
adapter of :mod:`repro.service.net`, and the sharded router of
:mod:`repro.service.router`.  The ops are declared once, in :data:`OPS`;
:meth:`ServeSession.dispatch` answers one request from that table, so a
client cannot tell which surface (or a router from a daemon) served it.

Ops
---

``{"op": "submit", "spec": "majority", "properties": ["ws3"],
"priority": 0, "stream": true}``
    Submit one protocol.  The protocol is named by a ``spec`` (a family
    name, ``family:parameter`` or a JSON file path) or supplied inline as a
    ``protocol`` dictionary (the ``repro.io.serialization`` wire format).
    Responds with the job id immediately; with ``"stream": true`` every
    progress event of the job is pushed as an event line.

``{"op": "submit", "specs": ["majority", "flock-of-birds:6"]}``
    Submit a whole batch as one job (the ``check_many`` semantics: dedup,
    result cache, across-protocol fan-out).  ``specs`` must be a non-empty
    list.

``{"op": "status", "job": "job-1"}``
    Non-blocking status plus the number of events recorded so far.

``{"op": "events", "job": "job-1", "since": 0}``
    Drain the job's event log from sequence number ``since`` (polling
    alternative to ``stream``; a negative ``since`` is refused); responds
    with the events and the next sequence number.  Add ``"wait": true``
    (and an optional ``"timeout"`` in seconds) to long-poll: the response
    is deferred until at least one event past ``since`` exists or the job
    finishes — this is what makes client-side event streams resumable
    without busy-polling.

``{"op": "cancel", "job": "job-1"}``
    Request cooperative cancellation.

``{"op": "wait", "job": "job-1", "timeout": 5.0}``
    Block until the job finishes (or the timeout elapses).

``{"op": "result", "job": "job-1", "wait": true}``
    The job's lossless result: ``"report"``
    (:meth:`~repro.api.report.VerificationReport.to_dict`) for single
    checks, ``"batch"`` (:func:`~repro.engine.batch.batch_result_to_dict`,
    the journal's shape) for batch jobs.  Cancelled and failed jobs
    produce an error response instead.

``{"op": "jobs"}`` / ``{"op": "shutdown"}``
    List every job; end the session.

``{"op": "stats"}``
    The serving tier's counters, read from the process's metrics registry
    (the same series ``GET /metricsz`` renders, so the two always agree):
    job events (submitted/completed/failed/cancelled/recovered), the
    pending-queue depth, result-cache traffic (``null`` until a cache is
    open), journal events (``null`` without a journal), engine events
    (once an engine exists), and — over the network tier — the
    connection/frame/shedding counters plus this server's open
    connections.  Counters are per process: a daemon has one service,
    server, cache and journal.  ``GET /statsz`` serves the same payload.

``{"op": "metrics"}``
    The process-global observability-registry snapshot (counters, gauges,
    latency histograms) in mergeable form — the machine-readable twin of
    ``GET /metricsz``, which renders it as Prometheus text.

Responses and events
--------------------

Every request gets one ``{"type": "response", "ok": ..., "op": ...}``
object echoing its optional ``"id"``; failures carry ``"error"`` instead of
``"op"``, and shed requests add ``"overloaded": true``, ``"retryable":
true`` and a ``"retry_after"`` hint.  Bad input of any shape — malformed
JSON, unknown ops, wrongly-typed fields — yields an error response; the
daemon never dies on it.  Streamed events are ``{"type": "event", "job":
..., "event": ...}`` lines that may interleave with responses.

Routing classes
---------------

Each table entry names how the router serves it: ``owner`` ops go to the
shard that owns the job (by the namespaced ``job`` id, or by the content
hash of the submitted protocol), ``gather`` ops are scattered to every
shard and merged by the entry's ``merge``, and ``local`` ops run on the
router itself.

Session end
-----------

EOF on stdin ends the session too; like ``shutdown``, it cancels every job
that has not finished (nobody is left to read the results) — *unless* the
service runs on a durable journal (``repro-verify serve --journal-dir``), in
which case unfinished jobs are deliberately left queued: they are already
journalled, and the next daemon started on the same journal re-enqueues and
finishes them (see :mod:`repro.service.journal`).
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.api.jobs import TERMINAL_STATUSES
from repro.engine.batch import batch_result_to_dict
from repro.engine.cache import cache_statistics
from repro.engine.monitor import JobCancelledError
from repro.engine.scheduler import engine_statistics
from repro.io.loading import ProtocolLoadError, resolve_protocol_spec
from repro.io.serialization import protocol_from_dict
from repro.obs.metrics import REGISTRY, label_snapshot, merge_snapshots
from repro.service.jobs import JobHandle, JobNotFinished
from repro.service.journal import journal_statistics
from repro.service.service import service_statistics

logger = logging.getLogger(__name__)

#: Per-op request service time, across every transport (stdio pipe, TCP
#: line protocol, the HTTP adapter, the router).  Blocking ops (``wait``,
#: long-polling ``events``) include their wait time — this measures what
#: the *client* experienced.  Ops outside the table count as ``unknown``.
_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_net_request_seconds",
    "Request service time per serve-protocol op",
)
#: Error responses per op (same labels as ``repro_net_request_seconds``).
_REQUEST_ERRORS = REGISTRY.counter(
    "repro_net_request_errors_total",
    "Error responses per serve-protocol op",
)


class ServeError(ValueError):
    """A request that cannot be served (bad op, unknown job, bad protocol)."""


class OverloadedError(ServeError):
    """The server is at capacity; the request was shed and may be retried.

    Raised by admission control (see :mod:`repro.service.net`) and by the
    router when a shard stays unreachable; rendered as an error response
    carrying ``"overloaded": true``, ``"retryable": true`` and a
    ``"retry_after"`` hint, so clients back off instead of hammering.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


def submitted_protocols(request: dict) -> list:
    """The protocols a submit request names, resolved.

    ``specs`` (a batch) wins over an inline ``protocol``, which wins over
    one ``spec``.  The daemon submits the result; the router hashes it to
    pick the owning shard.
    """
    if "specs" in request:
        specs = request["specs"]
        if not isinstance(specs, list) or not specs:
            raise ServeError("submit 'specs' must be a non-empty list")
        return [resolve_protocol_spec(spec) for spec in specs]
    if "protocol" in request:
        try:
            return [protocol_from_dict(request["protocol"])]
        except Exception as error:
            raise ServeError(f"bad inline protocol: {error}") from error
    spec = request.get("spec")
    if not spec:
        raise ServeError("submit needs a 'spec', 'specs' or an inline 'protocol'")
    return [resolve_protocol_spec(spec)]


def follow_events(call: Callable[[dict], dict], job: str, since: int = 0, *, follow: bool = True):
    """Follow one job's event log through the ``events`` op, resumably.

    ``call(request)`` answers one ``events`` request — the local dispatcher,
    a shard link or a client — and adds what its transport needs (the
    long-poll ``timeout``).  Yields each answer's events as a list (empty
    when a long poll ran out), so the caller can check its stop flag or
    idle deadline between polls.  The first poll drains the backlog without
    blocking; with ``follow`` the next ones long-poll until the job is
    finished and its log drained.  A failed answer raises
    :class:`ServeError`.
    """
    request = {"op": "events", "job": job, "since": since}
    while True:
        response = call(request)
        if not response.get("ok"):
            raise ServeError(response.get("error", "events request failed"))
        events = response.get("events", [])
        yield events
        if not follow or (not events and response.get("status") in TERMINAL_STATUSES):
            return
        since = response.get("next", since + len(events))
        request = {"op": "events", "job": job, "since": since, "wait": True}


def _failure(error: Exception) -> dict:
    response = {"type": "response", "ok": False, "error": str(error)}
    if isinstance(error, OverloadedError):
        # Load shedding is explicit and retryable: the client learns it was
        # turned away (not that its request was malformed) and when to
        # come back.
        response.update(overloaded=True, retryable=True, retry_after=error.retry_after)
    return response


# ----------------------------------------------------------------------
# Local handlers: serve one op against the session's service and return
# the response body (the dispatcher adds type, ok, id and op).
# ----------------------------------------------------------------------


def _job(session: "ServeSession", request: dict) -> JobHandle:
    try:
        return session.service.job(request["job"])
    except KeyError:
        raise ServeError(f"unknown job {request['job']!r}") from None


def _timeout(request: dict) -> float | None:
    timeout = request.get("timeout")
    return None if timeout is None else float(timeout)


def _since(request: dict) -> int:
    since = int(request.get("since", 0))
    if since < 0:
        # A negative cursor would slice from the end of the log and hand
        # back a "next" that replays all of it.
        raise ServeError(f"'since' must be a sequence number >= 0, not {since}")
    return since


def _submit(session: "ServeSession", request: dict) -> dict:
    session.admit()
    properties = request.get("properties")
    priority = int(request.get("priority", 0))
    subscriber = session.stream_event if request.get("stream") else None
    protocols = submitted_protocols(request)
    if "specs" in request:
        handle = session.service.submit_batch(
            protocols, properties=properties, priority=priority, subscriber=subscriber
        )
    else:
        handle = session.service.submit(
            protocols[0], properties=properties, priority=priority, subscriber=subscriber
        )
    session.submitted.append(handle.job_id)
    return {"job": handle.job_id, "kind": handle.kind}


def _status(session: "ServeSession", request: dict) -> dict:
    handle = _job(session, request)
    return {
        "job": handle.job_id,
        "kind": handle.kind,
        "status": handle.status().value,
        "events": len(handle.events_so_far()),
    }


def _events(session: "ServeSession", request: dict) -> dict:
    handle = _job(session, request)
    since = _since(request)
    if request.get("wait"):
        # Long poll: block until something past `since` exists (or the job
        # finished, or the timeout ran out) instead of making the client
        # busy-poll an unchanged log.
        handle.wait_for_events(since, timeout=_timeout(request))
    events = [event.to_dict() for event in handle.events_so_far()[since:]]
    return {
        "job": handle.job_id,
        "events": events,
        "next": since + len(events),
        "status": handle.status().value,
    }


def _cancel(session: "ServeSession", request: dict) -> dict:
    handle = _job(session, request)
    return {"job": handle.job_id, "cancelled": handle.cancel()}


def _wait(session: "ServeSession", request: dict) -> dict:
    handle = _job(session, request)
    finished = handle.wait(timeout=_timeout(request))
    return {"job": handle.job_id, "finished": finished, "status": handle.status().value}


def _result(session: "ServeSession", request: dict) -> dict:
    handle = _job(session, request)
    if request.get("wait", True):
        handle.wait(timeout=_timeout(request))
    try:
        result = handle.result()
    except JobNotFinished:
        raise ServeError(f"job {handle.job_id!r} is still {handle.status().value}") from None
    except JobCancelledError:
        raise ServeError(f"job {handle.job_id!r} was cancelled") from None
    except Exception as error:
        raise ServeError(f"job {handle.job_id!r} failed: {error}") from error
    body = {"job": handle.job_id, "status": handle.status().value}
    if handle.kind == "batch":
        body["batch"] = batch_result_to_dict(result)
    else:
        body["report"] = result.to_dict()
    return body


def _jobs(session: "ServeSession", request: dict) -> dict:
    return {
        "jobs": [
            {
                "job": handle.job_id,
                "kind": handle.kind,
                "status": handle.status().value,
                "priority": handle.priority,
            }
            for handle in session.service.jobs()
        ]
    }


def _stats(session: "ServeSession", request: dict) -> dict:
    from repro.constraints.incremental import incremental_statistics

    service = session.service
    stats = {
        "service": service_statistics(),
        "pending_jobs": service.pending_count(),
        "cache": cache_statistics() if service.verifier.cache is not None else None,
        "journal": journal_statistics() if service.journal is not None else None,
        # Incremental counters (cut promotion, core retention) — the
        # router's merge aggregates the per-shard retention rates from
        # this block.
        "incremental": incremental_statistics(),
    }
    if service.engine is not None:
        stats["engine"] = engine_statistics()
    return {"stats": session.with_server_stats(stats)}


def _metrics(session: "ServeSession", request: dict) -> dict:
    return {"metrics": REGISTRY.snapshot()}


def _shutdown(session: "ServeSession", request: dict) -> dict:
    # Cancel whatever is still pending: a shutdown must not hang on a long
    # queue (running jobs stop at their next checkpoint).  With a journal
    # the queue is durable instead — close() leaves it for the next daemon
    # rather than cancelling.  Network and router sessions only end their
    # own connection; daemon shutdown is the drain path's job.
    if session.owns_service and session.service.journal is None:
        session.cancel_unfinished()
    session.ended = True
    return {}


# ----------------------------------------------------------------------
# Router behaviour of the table entries: long-poll probes and merges.
# ----------------------------------------------------------------------


def _finished(response: dict) -> bool:
    return bool(response.get("finished"))


def _wait_poll(request: dict):
    return request, _finished


def _events_poll(request: dict):
    if not request.get("wait"):
        return None
    since = int(request.get("since", 0))

    def settled(response: dict) -> bool:
        return (
            bool(response.get("events"))
            or response.get("next", since) > since
            or response.get("status") in TERMINAL_STATUSES
        )

    return request, settled


def _result_poll(request: dict):
    if not request.get("wait", True):
        return None
    # Settle the job with sliced waits, then fetch the result once (the
    # payload itself can be big; no reason to re-ship it per slice).
    probe = {"op": "wait", "job": request["job"]}
    if "timeout" in request:
        probe["timeout"] = request["timeout"]
    return probe, _finished


def _merge_jobs(session: "ServeSession", gathered: dict) -> dict:
    jobs: list = []
    shards: dict = {}
    for shard_id in session.router.shard_ids:
        response = gathered.get(shard_id)
        if response is None or not response.get("ok"):
            shards[shard_id] = "unreachable"
            continue
        shards[shard_id] = "ok"
        for entry in response.get("jobs", []):
            entry = dict(entry)
            entry["job"] = f"{shard_id}:{entry.get('job', '')}"
            entry["shard"] = shard_id
            jobs.append(entry)
    return {"jobs": jobs, "shards": shards}


def _merge_stats(session: "ServeSession", gathered: dict) -> dict:
    from repro.service.replicas import supervisor_statistics

    router = session.router
    shards = {shard_id: (response or {}).get("stats") for shard_id, response in gathered.items()}
    # Fleet-level view of the incremental-IR counters: the per-shard
    # learned-core retention rates side by side (a shard whose rate
    # collapses is rebuilding solver state it should be reusing), plus
    # summed core/cut counters across reachable shards.
    retention = {}
    totals: dict = {}
    for shard_id, stats in shards.items():
        block = (stats or {}).get("incremental")
        if not block:
            continue
        retention[shard_id] = block.get("core_retention_rate")
        for counter, value in block.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[counter] = totals.get(counter, 0) + value
    totals.pop("core_retention_rate", None)
    stats = {
        "router": router.statsz_payload(),
        "supervisor": supervisor_statistics(),
        "fleet": router.supervisor.fleet_status(),
        "shards": shards,
        "incremental": {"core_retention_by_shard": retention, "totals": totals},
    }
    return {"stats": session.with_server_stats(stats)}


def _merge_metrics(session: "ServeSession", gathered: dict) -> dict:
    """Every reachable shard's registry snapshot stamped with a ``shard``
    label, the router's own with ``shard="router"``, merged into one — every
    series says which process it came from, and the sum renders as one
    valid Prometheus exposition.  Unreachable shards are simply absent."""
    snapshots = []
    for shard_id in session.router.shard_ids:
        response = gathered.get(shard_id)
        if response and response.get("ok") and isinstance(response.get("metrics"), dict):
            snapshots.append(label_snapshot(response["metrics"], shard=shard_id))
    snapshots.append(label_snapshot(REGISTRY.snapshot(), shard="router"))
    return {"metrics": merge_snapshots(*snapshots)}


@dataclass(frozen=True)
class Op:
    """One entry of the op table.

    ``handler(session, request)`` serves the op against a local service
    and returns the response body.  ``needs_job`` ops are refused without a
    ``job`` id before any handler runs.  ``route`` is the op's routing
    class on the sharded router: ``"owner"`` forwards it to the shard that
    owns the job (by namespaced ``job`` id, or by content hash for an op
    without one), ``"gather"`` scatters it to every shard and combines the
    answers with ``merge(session, {shard: response or None})``, and
    ``"local"`` runs ``handler`` on the router itself.  ``long_poll(request)``
    says how the router serves a blocking owner op: ``None`` when this
    request does not block, else ``(probe, settled)`` — the router repeats
    ``probe`` in bounded slices until ``settled(response)``, and when the
    probe is a different op it then runs the request without blocking.
    """

    name: str
    handler: Callable[["ServeSession", dict], dict]
    route: str = "owner"
    needs_job: bool = True
    merge: Callable[["ServeSession", dict], dict] | None = None
    long_poll: Callable[[dict], tuple | None] | None = None


#: The serve protocol: every op, once.
OPS = {
    op.name: op
    for op in (
        Op("submit", _submit, needs_job=False),
        Op("status", _status),
        Op("events", _events, long_poll=_events_poll),
        Op("cancel", _cancel),
        Op("wait", _wait, long_poll=_wait_poll),
        Op("result", _result, long_poll=_result_poll),
        Op("jobs", _jobs, route="gather", needs_job=False, merge=_merge_jobs),
        Op("stats", _stats, route="gather", needs_job=False, merge=_merge_stats),
        Op("metrics", _metrics, route="gather", needs_job=False, merge=_merge_metrics),
        Op("shutdown", _shutdown, route="local", needs_job=False),
    )
}


class ServeSession:
    """One client's session: answers requests from :data:`OPS`.

    ``write(payload)`` sends a response and ``sink(payload)`` a streamed
    event line.  The stdio daemon passes neither: both go to
    ``output_stream`` under one lock, flushed per line (streamed events
    arrive from dispatcher threads, and clients block on complete lines).
    A network connection passes its socket writer and its bounded event
    pump; the HTTP adapter only calls :meth:`dispatch` and reads the dict.

    Without a ``server`` (the stdio daemon) the session owns its service:
    its end closes the service and — without a journal — cancels every
    unfinished job.  With one (a connection of a shared daemon, see
    :mod:`repro.service.net`) the service keeps running; only the jobs
    *this* session submitted are cancelled when it ends (journalled
    services keep even those: they are durable and pollable from other
    connections).  A server built on a router makes the session route ops
    by their routing class instead of serving them locally.
    """

    def __init__(
        self,
        service,
        input_stream=None,
        output_stream=None,
        *,
        server=None,
        write: Callable[[dict], None] | None = None,
        sink: Callable[[dict], None] | None = None,
    ):
        self.service = service
        self.server = server
        self.router = server.router if server is not None else None
        self.owns_service = server is None
        self._input = input_stream
        self._output = output_stream
        self._output_lock = threading.Lock()
        self.write = write or self._write_output
        self.sink = sink or self.write
        self.submitted: list[str] = []
        self.ended = False
        self._after_reply: list[Callable[[], None]] = []
        self._on_close: list[Callable[[], None]] = []
        self._closed = False

    def _write_output(self, payload: dict) -> None:
        line = json.dumps(payload, sort_keys=True)
        with self._output_lock:
            self._output.write(line + "\n")
            self._output.flush()

    def stream_event(self, event) -> None:
        self.sink({"type": "event", "job": event.job_id, "event": event.to_dict()})

    def after_reply(self, action: Callable[[], None]) -> None:
        """Run ``action`` once the current request's response is written."""
        self._after_reply.append(action)

    def on_close(self, action: Callable[[], None]) -> None:
        self._on_close.append(action)

    def admit(self) -> None:
        """The server's admission control (a pipe has exactly one client)."""
        if self.server is not None:
            self.server.check_job_admission()

    def with_server_stats(self, stats: dict) -> dict:
        if self.server is not None:
            stats["server"] = self.server.statsz_payload()
        return stats

    # ------------------------------------------------------------------
    # The dispatcher
    # ------------------------------------------------------------------

    def dispatch(self, request) -> dict:
        """Answer one parsed request; never raises on bad input."""
        started = time.perf_counter()
        op = None
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            if not isinstance(request, dict):
                raise ServeError("each request must be a JSON object")
            op = OPS.get(request.get("op"))
            if op is None:
                known = ", ".join(sorted(OPS))
                raise ServeError(f"unknown op {request.get('op')!r}; known ops: {known}")
            if op.needs_job and not request.get("job"):
                raise ServeError("this op needs a 'job' id")
            if self.router is None or op.route == "local":
                body = op.handler(self, request)
            else:
                body = self.router.route(self, op, request)
            response = {"type": "response", "ok": True, **body}
            if response["ok"]:
                response.setdefault("op", op.name)
        # TypeError covers wrongly-typed request fields (e.g. a number
        # where a property list belongs): bad input of any shape yields an
        # error response, never a dead daemon.
        except (ServeError, ProtocolLoadError, ValueError, TypeError) as error:
            response = _failure(error)
        label = op.name if op is not None else "unknown"
        _REQUEST_SECONDS.observe(time.perf_counter() - started, op=label)
        if not response["ok"]:
            _REQUEST_ERRORS.inc(op=label)
        if request_id is not None:
            response["id"] = request_id
        return response

    # ------------------------------------------------------------------
    # Line framing (stdio and TCP)
    # ------------------------------------------------------------------

    def run(self) -> int:
        """Serve until EOF or a ``shutdown`` request; returns an exit code."""
        try:
            for line in self._input:
                if self.serve_line(line):
                    break
        finally:
            self.close()
        return 0

    def serve_line(self, line: str) -> bool:
        """Answer one raw request line; True when the session should end."""
        line = line.strip()
        if not line:
            return False
        try:
            request = json.loads(line)
        except ValueError as error:
            _REQUEST_ERRORS.inc(op="unknown")
            self.write(_failure(error))
            return False
        self.write(self.dispatch(request))
        actions, self._after_reply = self._after_reply, []
        for action in actions:
            action()
        return self.ended

    def close(self) -> None:
        """End the session exactly once (idempotent).

        Owning sessions close the service; shared-service sessions only
        withdraw their own jobs; router sessions stop their event pumps
        and leave every job on its durable shard.  A journalled backlog
        always survives — durability beats cancellation.
        """
        if self._closed:
            return
        self._closed = True
        for action in self._on_close:
            action()
        service = self.service
        if service is None:
            return
        if not self.owns_service:
            # One connection of a shared daemon went away.  Without a
            # journal its unread jobs are garbage (nobody can fetch the
            # results; other sessions never learned the ids) — cancel them.
            # Other sessions' jobs are untouched.
            if service.journal is None:
                for job_id in self.submitted:
                    try:
                        handle = service.job(job_id)
                    except KeyError:
                        continue
                    if not handle.status().finished:
                        handle.cancel()
            return
        if service.journal is not None:
            # Durable mode: the backlog is journalled, so ending the
            # session must not throw it away — leave unfinished jobs
            # queued (close without draining) and let the next daemon on
            # this journal resume them.
            resumable = service.pending_count()
            service.close(drain=False)
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
            self.cancel_unfinished()
            service.close()

    def cancel_unfinished(self) -> None:
        for handle in self.service.jobs():
            if not handle.status().finished:
                handle.cancel()
