"""A resilient client for the TCP verification daemon.

:class:`VerificationClient` speaks the JSON-lines protocol of
:mod:`repro.service.serve` over a persistent TCP connection to a
:class:`~repro.service.net.NetworkServer`, and wraps every request in the
retry discipline a networked service demands:

* **connect and request retries** — a refused connection, a mid-request
  disconnect or a torn response line reconnects and retries, up to
  :class:`ClientRetryPolicy.max_attempts`;
* **exponential backoff with jitter** — delays grow geometrically and are
  jittered so a fleet of shed clients does not return in lockstep;
* **overload awareness** — an ``overloaded`` response (the server's
  explicit load shedding) is retried after at least its ``retry_after``
  hint; if the server is still shedding when attempts run out, the final
  :class:`OverloadedError` tells the caller *why* (turned away, not
  broken);
* **resumable event streams** — :meth:`VerificationClient.events` follows
  the ``events`` op (:func:`repro.service.serve.follow_events`) with an
  explicit ``since`` cursor, so a dropped connection (or server-side
  buffer drop) costs nothing: the next poll replays exactly the missed
  suffix.

Retried submits are *at-least-once*: if the response to a ``submit`` is
lost after the server processed it, the retry creates a second job.
Verification is deterministic and side-effect-free, so a duplicate job
wastes work but never corrupts results; callers needing exactly-once
should submit once and reconcile via the ``jobs`` op.
"""

from __future__ import annotations

import itertools
import json
import logging
import random
import socket
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass

logger = logging.getLogger(__name__)


class ClientError(RuntimeError):
    """Base class of everything :class:`VerificationClient` raises."""


class RequestError(ClientError):
    """The server answered, and the answer is a non-retryable error."""


class OverloadedError(ClientError):
    """The server shed the request and kept shedding until retries ran out."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message or "server overloaded")
        self.retry_after = retry_after


class TransportError(ClientError):
    """The request could not be completed after every retry."""


@dataclass(frozen=True)
class ClientRetryPolicy:
    """Exponential backoff with full jitter.

    The delay before attempt ``n+1`` is ``backoff_seconds *
    backoff_factor**(n-1)`` capped at ``max_backoff_seconds``, jittered
    uniformly within ``±jitter`` of itself, and never below the server's
    ``retry_after`` hint when one was given.
    """

    max_attempts: int = 6
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 2.0
    jitter: float = 0.5

    def delay(self, attempt: int, rng: random.Random, floor: float = 0.0) -> float:
        base = min(self.max_backoff_seconds, self.backoff_seconds * self.backoff_factor ** max(0, attempt - 1))
        spread = base * max(0.0, min(1.0, self.jitter))
        jittered = base - spread + rng.random() * 2 * spread
        return max(floor, jittered)


class VerificationClient:
    """A persistent, retrying JSON-lines client of the network daemon.

    The client owns one socket, reconnecting transparently inside the
    retry loop; all methods are safe to call from multiple threads (one
    request is on the wire at a time).  Use as a context manager::

        with VerificationClient(host, port) as client:
            job = client.submit("majority")
            for event in client.events(job):
                ...
            report = client.result(job)["report"]
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 120.0,
        retry: ClientRetryPolicy | None = None,
        seed: int | None = None,
    ):
        self.host = host
        self.port = int(port)
        self.retry = retry or ClientRetryPolicy()
        self._timeout = timeout
        self._rng = random.Random(seed)
        self._lock = threading.RLock()
        self._sock: socket.socket | None = None
        self._file = None
        self._ids = itertools.count(1)
        self.statistics = {
            "requests": 0,
            "retries": 0,
            "reconnects": 0,
            "overloaded": 0,
            "events_dropped": 0,
        }

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def __enter__(self) -> "VerificationClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            self._disconnect()

    def _connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port), timeout=self._timeout)
        sock.settimeout(self._timeout)
        self._sock = sock
        self._file = sock.makefile("r", encoding="utf-8", newline="\n")
        self.statistics["reconnects"] += 1

    def _disconnect(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # ------------------------------------------------------------------
    # The retry loop
    # ------------------------------------------------------------------

    def call(self, payload: dict, *, read_timeout: float | None = None) -> dict:
        """Send one raw op and return its response dictionary, ok or not.

        The proxying primitive (used by the sharded router): transport
        failures are retried exactly like :meth:`_request`, but the first
        response that arrives — success, explicit overload, or any error —
        is returned verbatim instead of being retried or raised, so a relay
        can forward the server's own answer (including ``retry_after``
        hints) to its caller unchanged.
        """
        return self._request(payload, read_timeout, raw=True)

    def _request(
        self, payload: dict, read_timeout: float | None = None, *, raw: bool = False
    ) -> dict:
        """Send one op and return its ``ok`` response, retrying as needed.

        Retries cover transport failures (refused/loss/torn line — the
        connection is rebuilt) and explicit ``overloaded`` responses
        (honouring ``retry_after``).  Non-retryable error responses raise
        :class:`RequestError` immediately.  With ``raw=True`` only
        transport failures are retried and whatever response arrives is
        returned as-is (see :meth:`call`).
        """
        last_error: Exception | None = None
        for attempt in range(1, self.retry.max_attempts + 1):
            if attempt > 1:
                self.statistics["retries"] += 1
                floor = getattr(last_error, "retry_after", 0.0)
                time.sleep(self.retry.delay(attempt - 1, self._rng, floor=floor))
            try:
                response = self._attempt(payload, read_timeout)
            except (OSError, EOFError, ValueError) as error:
                # OSError: dead/refused socket; EOFError: server closed
                # mid-exchange; ValueError: a torn JSON line (e.g. an
                # injected truncate).  All mean "rebuild and retry".
                last_error = error
                with self._lock:
                    self._disconnect()
                continue
            if raw or response.get("ok"):
                return response
            if response.get("overloaded") or response.get("retryable"):
                self.statistics["overloaded"] += 1
                last_error = OverloadedError(
                    response.get("error", ""), float(response.get("retry_after", 1.0))
                )
                continue
            raise RequestError(response.get("error", "request failed"))
        if isinstance(last_error, OverloadedError):
            raise last_error
        raise TransportError(
            f"request {payload.get('op')!r} failed after {self.retry.max_attempts} attempts: "
            f"{last_error}"
        ) from last_error

    def _attempt(self, payload: dict, read_timeout: float | None) -> dict:
        with self._lock:
            self._connect()
            self.statistics["requests"] += 1
            request_id = f"r{next(self._ids)}"
            message = dict(payload)
            message["id"] = request_id
            self._sock.sendall((json.dumps(message) + "\n").encode("utf-8"))
            if read_timeout is not None:
                self._sock.settimeout(read_timeout)
            try:
                while True:
                    line = self._file.readline()
                    if not line:
                        raise EOFError("the server closed the connection")
                    if not line.endswith("\n"):
                        raise EOFError("the connection died mid-line")
                    data = json.loads(line)  # ValueError on a torn/corrupt line
                    if not isinstance(data, dict):
                        raise ValueError("non-object line from the server")
                    kind = data.get("type")
                    if kind == "dropped":
                        # The server's bounded event buffer overflowed; the
                        # events op replays what was lost, so just account it.
                        self.statistics["events_dropped"] += int(data.get("dropped", 0))
                        continue
                    if kind == "event":
                        continue  # push-streamed events; this client polls instead
                    if kind == "response" and data.get("id") == request_id:
                        return data
                    if kind == "response" and "id" not in data and not data.get("ok"):
                        # Connection-scoped rejections (shed connection, rate
                        # limit, unparseable frame) carry no id; they answer
                        # whatever is in flight — this request.  The server is
                        # closing this connection, so drop it now: a retry must
                        # reconnect rather than read EOF off the dead socket.
                        self._disconnect()
                        return data
                    # A response to a stale id (the late answer of a request
                    # we already retried): skip it.
            finally:
                if read_timeout is not None and self._sock is not None:
                    self._sock.settimeout(self._timeout)

    # ------------------------------------------------------------------
    # The public ops
    # ------------------------------------------------------------------

    def submit(
        self,
        spec: str | None = None,
        *,
        specs: list[str] | None = None,
        protocol: dict | None = None,
        properties: list[str] | None = None,
        priority: int = 0,
    ) -> str:
        """Submit a job and return its id (at-least-once under retries)."""
        payload: dict = {"op": "submit", "priority": priority}
        if specs is not None:
            payload["specs"] = list(specs)
        elif protocol is not None:
            payload["protocol"] = protocol
        elif spec is not None:
            payload["spec"] = spec
        else:
            raise ValueError("submit needs a spec, specs or an inline protocol")
        if properties is not None:
            payload["properties"] = list(properties)
        return self._request(payload)["job"]

    def status(self, job: str) -> dict:
        """``{"job", "status", "events"}`` for one job (non-blocking)."""
        response = self._request({"op": "status", "job": job})
        return {key: response[key] for key in ("job", "status", "events")}

    def cancel(self, job: str) -> bool:
        return bool(self._request({"op": "cancel", "job": job})["cancelled"])

    def wait(self, job: str, timeout: float | None = None) -> str:
        """Block until the job finishes; returns its terminal (or current) status."""
        payload: dict = {"op": "wait", "job": job}
        read_timeout = None
        if timeout is not None:
            payload["timeout"] = timeout
            read_timeout = timeout + min(30.0, self._timeout)
        return self._request(payload, read_timeout=read_timeout)["status"]

    def result(self, job: str, wait: bool = True, timeout: float | None = None) -> dict:
        """The job's lossless result payload.

        Returns the full ``result`` response: ``"report"`` for single
        checks, ``"batch"`` for batches, plus ``"status"``.  Raises
        :class:`RequestError` for failed or cancelled jobs.
        """
        payload: dict = {"op": "result", "job": job, "wait": wait}
        read_timeout = None
        if timeout is not None:
            payload["timeout"] = timeout
            read_timeout = timeout + min(30.0, self._timeout)
        return self._request(payload, read_timeout=read_timeout)

    def report(self, job: str, timeout: float | None = None):
        """The decoded :class:`~repro.api.report.VerificationReport` of a check job."""
        from repro.api.report import VerificationReport

        response = self.result(job, wait=True, timeout=timeout)
        if "report" not in response:
            raise RequestError(f"job {job!r} is a batch job; use result()")
        return VerificationReport.from_dict(response["report"])

    def jobs(self) -> list[dict]:
        return list(self._request({"op": "jobs"})["jobs"])

    def shutdown(self) -> None:
        """End this connection's session server-side (the daemon keeps running)."""
        try:
            self._request({"op": "shutdown"})
        finally:
            self.close()

    # ------------------------------------------------------------------
    # Resumable event streaming
    # ------------------------------------------------------------------

    def events(
        self,
        job: str,
        since: int = 0,
        *,
        follow: bool = True,
        poll_timeout: float = 10.0,
    ) -> Iterator[dict]:
        """Yield the job's events as dictionaries, resumably.

        A long-poll loop over the ``events`` op: every poll carries the
        explicit ``since`` cursor, so reconnects (handled inside the retry
        loop), server-side buffer drops and even a daemon restart on the
        same journal replay the stream without gaps or duplicates.  With
        ``follow=True`` the stream ends when the job finishes and its log
        is drained; with ``follow=False`` it yields the current backlog
        and returns.
        """
        # Imported here: a client-only process loads the server modules
        # only once it follows a job.
        from repro.service.serve import follow_events

        read_timeout = poll_timeout + min(30.0, self._timeout)

        def poll(request: dict) -> dict:
            return self._request({**request, "timeout": poll_timeout}, read_timeout=read_timeout)

        for events in follow_events(poll, job, int(since), follow=follow):
            yield from events
