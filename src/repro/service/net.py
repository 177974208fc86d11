"""Hardened TCP/HTTP network front end for the verification service.

:class:`NetworkServer` owns one listening socket and speaks **two**
protocols on it, sniffing the first bytes of every connection:

* the JSON-lines protocol of :mod:`repro.service.serve` — one non-owning
  :class:`~repro.service.serve.ServeSession` per connection over the
  shared :class:`~repro.service.service.VerificationService`, with
  streamed events multiplexed per connection;
* a minimal HTTP/1.1 adapter for clients that would rather curl than
  speak the line protocol.  The routes that answer one op are rows of
  :data:`_HTTP_ROUTES`; ``GET /jobs/<id>`` (status plus result) and
  ``GET /jobs/<id>/events`` (chunked NDJSON) call the same dispatcher,
  and ``GET /healthz`` / ``GET /readyz`` answer for the server itself.

The robustness layer is the point; every limit lives in
:class:`ServerLimits`:

* **Admission control / load shedding** — at ``max_connections`` live
  connections, new ones receive an explicit ``overloaded`` response (HTTP:
  ``503`` + ``Retry-After``) and are closed; at ``max_pending_jobs``
  queued jobs, submits are shed the same way.  The queue never grows
  without bound, and a shed client knows it was shed, not broken.
* **Per-connection protection** — frames over ``max_frame_bytes`` are
  discarded (with an error response) without buffering them; a token
  bucket enforces ``rate_limit`` frames/second; ``idle_timeout`` reaps
  connections that stop talking.
* **Slow-client backpressure** — streamed events go through a bounded
  per-connection buffer drained by a dedicated writer thread.  When a
  client cannot keep up, the oldest events are *dropped with a marker*
  (``{"type": "dropped", "job": ..., "dropped": n}``) instead of stalling
  the engine's dispatcher threads; the ``events`` op with ``since=``
  replays whatever was missed.  **Shed before stall** is the tier's
  invariant.
* **Graceful drain** — SIGTERM (see :meth:`NetworkServer.serve_forever`)
  stops the listener, gives live connections ``drain_timeout`` to finish,
  then closes the service: with a journal, unfinished jobs stay journalled
  and a restarted daemon resumes them (``kill -9`` mid-drain is equally
  safe — that is PR 6's write-ahead contract); without one the backlog is
  cancelled.

Fault injection (:mod:`repro.testing.faults`) covers the transport: site
``net.send`` (actions ``drop`` / ``delay`` / ``truncate`` / ``kill``)
fires on outgoing frames, site ``net.recv`` on incoming ones, so the
chaos suite can lose, stall and cut connections deterministically.
"""

from __future__ import annotations

import collections
import itertools
import json
import logging
import math
import re
import signal
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass, replace

from repro.api.jobs import TERMINAL_STATUSES
from repro.obs.metrics import REGISTRY, prometheus_text
from repro.service.serve import OverloadedError, ServeError, ServeSession, follow_events
from repro.testing import faults

logger = logging.getLogger(__name__)

#: This process's network-tier traffic, by event: the ``server`` block of
#: the ``stats`` op (:meth:`NetworkServer.statsz_payload`) and ``GET
#: /metricsz``.
_NET_EVENTS = REGISTRY.counter(
    "repro_net_events_total",
    "Network-tier traffic: connections, frames, shed load, dropped events",
)
_NET_EVENT_NAMES = (
    "connections", "http_requests", "frames", "frame_errors",
    "shed_connections", "shed_jobs", "events_dropped",
)

#: HTTP status reasons the adapter emits.
_HTTP_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    503: "Service Unavailable",
}

_HTTP_PREFIX = re.compile(rb"^[A-Z]{3,8}\s")

#: The HTTP routes that answer exactly one op: (method, path, op, success
#: status).  A failed op answers 503 with ``retry-after`` when it was shed,
#: 404 when the path names a job, and 400 otherwise.
_HTTP_ROUTES = (
    ("POST", "/jobs", "submit", 202),
    ("GET", "/jobs", "jobs", 200),
    ("DELETE", "/jobs/(?P<job>[^/]+)", "cancel", 200),
    ("GET", "/statsz", "stats", 200),
    ("GET", "/metricsz", "metrics", 200),
)

#: Upper bound on HTTP request-line + header bytes (headers are tiny; a
#: "header" growing past this is an attack or a bug, not a request).
_MAX_HTTP_HEAD_BYTES = 16 * 1024


@dataclass(frozen=True)
class ServerLimits:
    """Every knob of the serving tier's robustness layer, in one place.

    The defaults are deliberately conservative: a daemon started with no
    flags survives floods, slow readers and oversized frames out of the
    box.  ``rate_limit=0`` disables per-connection rate limiting.
    """

    max_connections: int = 64
    max_pending_jobs: int = 256
    max_frame_bytes: int = 1 << 20
    idle_timeout: float = 300.0
    rate_limit: float = 0.0  # frames/second per connection; 0 = unlimited
    rate_burst: int = 20
    event_buffer: int = 256  # per-connection buffered event lines
    drain_timeout: float = 30.0
    retry_after_seconds: float = 1.0

    def replace(self, **overrides) -> "ServerLimits":
        return replace(self, **overrides)


def parse_address(text: str) -> tuple[str, int]:
    """``"HOST:PORT"``, ``":PORT"`` or bare ``"PORT"`` -> ``(host, port)``."""
    text = text.strip()
    host, separator, port_text = text.rpartition(":")
    if not separator:
        host, port_text = "", text
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad address {text!r}: the port must be an integer") from None
    return host or "127.0.0.1", port


def listening_line(server: "NetworkServer") -> str:
    """The ``{"type": "listening", ...}`` line a started server announces.

    ``serve --tcp`` and ``route`` print it on stdout so wrappers (the
    replica supervisor, tests, load harnesses) learn an ephemeral port; a
    router adds its shard count.
    """
    host, port = server.address
    announcement = {"type": "listening", "host": host, "port": port, "protocols": ["jsonl", "http"]}
    if server.router is not None:
        announcement["shards"] = len(server.router.shard_ids)
    return json.dumps(announcement)


def _rejection(message: str, **extra) -> dict:
    """A connection-level error response (no op, no id)."""
    return {"type": "response", "ok": False, "error": message, **extra}


def _close_socket(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``burst``."""

    def __init__(self, rate: float, burst: int):
        self._rate = float(rate)
        self._capacity = float(max(1, burst))
        self._tokens = self._capacity
        self._last = time.monotonic()
        self._lock = threading.Lock()

    def take(self) -> bool:
        with self._lock:
            now = time.monotonic()
            self._tokens = min(self._capacity, self._tokens + (now - self._last) * self._rate)
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


class _ConnectionWriter:
    """Serialised, fault-injectable writer over one connection socket.

    All frames of a connection (responses, events, HTTP chunks) funnel
    through :meth:`write_bytes`, which is where the ``net.send`` fault
    site lives — dropping, delaying, truncating or killing exactly one
    frame is how the chaos suite exercises client-side retry.
    """

    def __init__(self, connection: socket.socket, peer: str = ""):
        self._connection = connection
        self._lock = threading.Lock()
        self.peer = peer
        self.dead = False

    def write_line(self, payload: dict, kind: str = "response") -> None:
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.write_bytes(data, kind=kind)

    def write_bytes(self, data: bytes, kind: str = "") -> None:
        fault = faults.fire("net.send", kind=kind, peer=self.peer)
        if fault is not None:
            data = self._apply_send_fault(fault, data)
            if data is None:
                return
        with self._lock:
            if self.dead:
                raise BrokenPipeError("connection writer is closed")
            try:
                self._connection.sendall(data)
            except OSError:
                self.dead = True
                raise

    def _apply_send_fault(self, fault, data: bytes) -> bytes | None:
        if fault.action == "delay":
            time.sleep(fault.seconds)
            return data
        if fault.action == "drop":
            return None
        if fault.action == "raise":
            raise faults.FaultInjected("fault injected at net.send")
        if fault.action in ("truncate", "kill"):
            if fault.action == "truncate" and len(data) > 1:
                # Half a frame on the wire, then a hard close: the client
                # sees a torn line + EOF and must retry.
                try:
                    with self._lock:
                        self._connection.sendall(data[: len(data) // 2])
                except OSError:
                    pass
            self.kill()
            return None
        return data

    def kill(self) -> None:
        """Hard-close the connection (fault injection / force-drain)."""
        with self._lock:
            self.dead = True
        try:
            self._connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


class _EventPump:
    """Bounded per-connection event buffer with a dedicated writer thread.

    Dispatcher threads fan events out synchronously, so a slow or stalled
    client must never appear on their call path.  :meth:`push` is
    non-blocking: at capacity the *oldest* buffered event is dropped and
    accounted per job, and before the next event of that job is written
    the client receives a ``{"type": "dropped", "job": ..., "dropped": n}``
    marker — it knows exactly what it missed and can replay via the
    ``events`` op.  Drop-with-marker beats stalling the engine; it also
    beats silently losing events.
    """

    def __init__(self, writer: _ConnectionWriter, capacity: int, on_drop=None):
        self._writer = writer
        self._capacity = max(1, int(capacity))
        self._condition = threading.Condition()
        self._queue: collections.deque = collections.deque()
        self._dropped: dict[str, int] = {}
        self._closed = False
        self._on_drop = on_drop
        self._thread = threading.Thread(target=self._run, name="repro-net-events", daemon=True)
        self._thread.start()

    def push(self, payload: dict) -> None:
        with self._condition:
            if self._closed:
                return
            if len(self._queue) >= self._capacity:
                victim = self._queue.popleft()
                job = victim.get("job", "")
                self._dropped[job] = self._dropped.get(job, 0) + 1
                if self._on_drop is not None:
                    self._on_drop()
            self._queue.append(payload)
            self._condition.notify()

    def _run(self) -> None:
        while True:
            with self._condition:
                while not self._queue and not self._closed:
                    self._condition.wait()
                if not self._queue:
                    return  # closed and flushed
                payload = self._queue.popleft()
                job = payload.get("job", "")
                dropped = self._dropped.pop(job, 0)
            try:
                if dropped:
                    self._writer.write_line(
                        {
                            "type": "dropped",
                            "job": job,
                            "dropped": dropped,
                            "next": payload.get("event", {}).get("seq", 0),
                        },
                        kind="event",
                    )
                self._writer.write_line(payload, kind="event")
            except Exception:
                # A dead client ends the pump, never the dispatcher.
                with self._condition:
                    self._closed = True
                    self._queue.clear()
                return

    def close(self, timeout: float = 1.0) -> None:
        """Stop accepting events and give the flush a bounded window."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()
        self._thread.join(timeout=timeout)

    def join(self, timeout: float = 5.0) -> None:
        self._thread.join(timeout=timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()


class NetworkServer:
    """Threaded dual-protocol (JSON-lines + HTTP/1.1) serving tier.

    Parameters
    ----------
    service:
        The shared :class:`~repro.service.service.VerificationService`.
        With ``owns_service=True`` (default) :meth:`drain` closes it.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    limits:
        A :class:`ServerLimits`; defaults apply when omitted.
    """

    #: The :class:`~repro.service.router.JobRouter` a router's server routes
    #: through (``None``: ops are served by the local service).
    router = None

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        limits: ServerLimits | None = None,
        owns_service: bool = True,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.limits = limits or ServerLimits()
        self.owns_service = owns_service
        self._listener: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._accept_thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._busy: set[socket.socket] = set()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_requested = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "NetworkServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (available after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError("the server has not been started")
        return self._address

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def start(self) -> tuple[str, int]:
        """Bind, listen and start accepting; returns the bound address."""
        if self._listener is not None:
            return self.address
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self._listener = listener
        self._address = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-net-accept", daemon=True
        )
        self._accept_thread.start()
        logger.info("serving on %s:%d", *self._address)
        return self._address

    def stop(self) -> None:
        """Request :meth:`serve_forever` to drain and return."""
        self._shutdown_requested.set()

    def serve_forever(self, *, handle_signals: bool = True, on_ready=None) -> int:
        """Serve until SIGTERM/SIGINT (graceful drain) or :meth:`stop`.

        The signal handler only sets a flag; the drain itself — stop
        accepting, finish or journal in-flight work, close the service —
        runs on this thread, so a second signal cannot interleave two
        drains.  Returns 0 (the drain is best-effort by design; anything
        it could not finish is journalled).

        ``on_ready`` (if given) runs after the signal handlers are
        installed.  Announce the bound address there, not before this
        call: a supervisor that reads the announcement and SIGTERMs
        immediately must hit the graceful handler, never the default one.
        """
        self.start()
        previous: dict[int, object] = {}
        if handle_signals:

            def request_shutdown(signum, frame):
                self._shutdown_requested.set()

            for signum in (signal.SIGTERM, signal.SIGINT):
                previous[signum] = signal.signal(signum, request_shutdown)
        if on_ready is not None:
            on_ready()
        try:
            while not self._shutdown_requested.wait(timeout=0.2):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        self.drain()
        return 0

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: shed new work, settle in-flight work, stop.

        Order matters and each step is bounded:

        1. the listener closes — ``readyz`` flips to 503 and new
           connections are refused by the kernel;
        2. live connections get the drain window to finish their current
           exchange, then their sockets are force-closed;
        3. the service closes on a helper thread joined with the remaining
           budget — with a journal it closes *without draining*, so queued
           and interrupted jobs stay journalled for the next daemon
           (``kill -9`` anywhere in here recovers identically); without a
           journal the backlog is cancelled, since nobody is left to read
           the results.

        Returns True iff everything settled inside the window.
        """
        if self._stopped.is_set():
            return True
        self._draining.set()
        window = self.limits.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + window
        if self._listener is not None:
            _close_socket(self._listener)
        while time.monotonic() < deadline:
            with self._lock:
                if not self._connections:
                    break
                # Idle connections (no exchange in flight) can be cut right
                # away; only in-flight exchanges earn the grace period.
                if not (self._busy & set(self._connections)):
                    break
            time.sleep(0.02)
        with self._lock:
            leftover = list(self._connections.items())
            graceful = not (self._busy & {connection for connection, _ in leftover})
        for connection, _ in leftover:
            _close_socket(connection)
        for _, thread in leftover:
            thread.join(timeout=1.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self.owns_service:
            graceful = self._close_service(max(0.5, deadline - time.monotonic())) and graceful
        self._stopped.set()
        return graceful

    def _close_service(self, budget: float) -> bool:
        """Close the shared service within ``budget`` seconds (best effort).

        ``service.close`` joins dispatcher threads, which finish their
        in-flight job first — that join is unbounded, so it runs on a
        helper thread we join with the budget.  If the budget expires the
        daemon exits anyway: with a journal the in-flight job is recorded
        as started-but-unfinished and the next daemon re-runs it.
        """
        if self.service.journal is None:
            # No durability: cancel everything unfinished (running jobs
            # stop at their next checkpoint) rather than verifying into
            # the void.
            for handle in self.service.jobs():
                if not handle.status().finished:
                    handle.cancel()

        def close() -> None:
            try:
                self.service.close(drain=self.service.journal is None)
            except Exception:  # pragma: no cover - close must never raise
                logger.exception("service close failed during drain")

        closer = threading.Thread(target=close, name="repro-net-closer", daemon=True)
        closer.start()
        closer.join(timeout=budget)
        if closer.is_alive():
            logger.warning(
                "drain window expired with jobs still settling; "
                "journalled work will be recovered by the next daemon"
            )
            return False
        return True

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def check_job_admission(self) -> None:
        """Raise :class:`OverloadedError` instead of growing the job queue."""
        retry_after = self.limits.retry_after_seconds
        if self._draining.is_set():
            raise OverloadedError("server is draining; submit elsewhere or retry later", retry_after)
        limit = self.limits.max_pending_jobs
        if limit and self.service.pending_count() >= limit:
            self._count("shed_jobs")
            raise OverloadedError(
                f"job queue is full ({limit} pending); retry later", retry_after
            )

    def _ping_payload(self) -> dict:
        with self._lock:
            connections = len(self._connections)
        return {
            "accepting": not self._draining.is_set(),
            "connections": connections,
            "pending_jobs": self.service.pending_count(),
        }

    @staticmethod
    def _count(event: str) -> None:
        _NET_EVENTS.inc(event=event)

    def statsz_payload(self) -> dict:
        """The network-tier counters of this process (connections, frames,
        shedding, drops) plus this server's open connections."""
        stats = _NET_EVENTS.counts(_NET_EVENT_NAMES)
        with self._lock:
            stats["open_connections"] = len(self._connections)
        stats["accepting"] = not self._draining.is_set()
        return stats

    # ------------------------------------------------------------------
    # Accepting and sniffing
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                connection, addr = self._listener.accept()
            except OSError:
                return  # listener closed: the drain began
            peer = f"{addr[0]}:{addr[1]}"
            shed = "draining: the server is shutting down; retry elsewhere" if self._draining.is_set() else ""
            thread = None
            if not shed:
                with self._lock:
                    if len(self._connections) >= self.limits.max_connections:
                        shed = "overloaded: too many connections; retry later"
                    else:
                        thread = threading.Thread(
                            target=self._handle_connection,
                            args=(connection, peer),
                            name=f"repro-net-conn-{peer}",
                            daemon=True,
                        )
                        self._connections[connection] = thread
            if shed:
                self._count("shed_connections")
                threading.Thread(
                    target=self._shed_connection,
                    args=(connection, shed),
                    name=f"repro-net-shed-{peer}",
                    daemon=True,
                ).start()
            else:
                thread.start()

    def _shed_connection(self, connection: socket.socket, message: str) -> None:
        """Tell a turned-away client *why*, in its own protocol, then close."""
        retry_after = self.limits.retry_after_seconds
        try:
            connection.settimeout(min(2.0, self.limits.idle_timeout))
            try:
                prefix = connection.recv(8, socket.MSG_PEEK)
            except OSError:
                prefix = b""
            if _HTTP_PREFIX.match(prefix):
                body = json.dumps({"ok": False, "error": message, "retryable": True}) + "\n"
                data = (
                    f"HTTP/1.1 503 {_HTTP_REASONS[503]}\r\n"
                    f"content-type: application/json\r\n"
                    f"retry-after: {math.ceil(retry_after)}\r\n"
                    f"content-length: {len(body.encode('utf-8'))}\r\n"
                    f"connection: close\r\n\r\n{body}"
                ).encode("utf-8")
            else:
                rejection = _rejection(
                    message, overloaded=True, retryable=True, retry_after=retry_after
                )
                data = (json.dumps(rejection, sort_keys=True) + "\n").encode("utf-8")
            try:
                connection.sendall(data)
                # Half-close and drain whatever the client already sent (its
                # first request is usually in flight): closing with unread
                # bytes would RST the connection and could destroy the shed
                # response before the client reads it.
                connection.shutdown(socket.SHUT_WR)
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    if not connection.recv(65536):
                        break
            except OSError:
                pass
        finally:
            _close_socket(connection)

    def _handle_connection(self, connection: socket.socket, peer: str) -> None:
        self._count("connections")
        try:
            connection.settimeout(self.limits.idle_timeout)
            try:
                prefix = connection.recv(8, socket.MSG_PEEK)
            except OSError:
                return
            if not prefix:
                return
            if _HTTP_PREFIX.match(prefix):
                self._serve_http(connection, peer)
            else:
                self._serve_tcp(connection, peer)
        except Exception:
            logger.exception("connection handler for %s crashed", peer)
        finally:
            _close_socket(connection)
            with self._lock:
                self._connections.pop(connection, None)

    # ------------------------------------------------------------------
    # The JSON-lines protocol over TCP
    # ------------------------------------------------------------------

    def _serve_tcp(self, connection: socket.socket, peer: str) -> None:
        writer = _ConnectionWriter(connection, peer)
        pump = _EventPump(writer, self.limits.event_buffer, on_drop=lambda: self._count("events_dropped"))
        session = ServeSession(self.service, server=self, write=writer.write_line, sink=pump.push)
        bucket = None
        if self.limits.rate_limit > 0:
            bucket = _TokenBucket(self.limits.rate_limit, self.limits.rate_burst)
        buffer = bytearray()
        try:
            while True:
                line, overflow = self._read_frame(connection, buffer)
                if line is None:
                    break
                self._count("frames")
                with self._lock:
                    self._busy.add(connection)
                try:
                    fault = faults.fire("net.recv", peer=peer)
                    if fault is not None:
                        if fault.action == "drop":
                            continue
                        if fault.action == "delay":
                            time.sleep(fault.seconds)
                        elif fault.action in ("kill", "truncate"):
                            break
                    if overflow:
                        self._count("frame_errors")
                        writer.write_line(
                            _rejection(
                                f"frame exceeds the {self.limits.max_frame_bytes}-byte limit "
                                "and was discarded",
                                frame_error=True,
                            )
                        )
                        continue
                    if bucket is not None and not bucket.take():
                        self._count("frame_errors")
                        writer.write_line(
                            _rejection(
                                f"rate limit exceeded ({self.limits.rate_limit:g} frames/s); "
                                "slow down and retry",
                                overloaded=True,
                                retryable=True,
                                retry_after=max(
                                    1.0 / self.limits.rate_limit, self.limits.retry_after_seconds
                                ),
                            )
                        )
                        continue
                    if session.serve_line(line):
                        break
                except OSError:
                    break  # the client is gone; responses have nowhere to go
                finally:
                    with self._lock:
                        self._busy.discard(connection)
        finally:
            # Teardown order is load-bearing for the no-leak guarantee:
            # withdraw the session's jobs, stop the pump, close the socket
            # (which unblocks a pump thread stuck writing to a stalled
            # client), then join the pump.
            with self._lock:
                self._busy.discard(connection)
            session.close()
            pump.close(timeout=1.0)
            _close_socket(connection)
            pump.join(timeout=5.0)

    def _read_frame(self, connection: socket.socket, buffer: bytearray) -> tuple[str | None, bool]:
        """One newline-terminated frame from the connection.

        Returns ``(frame, False)`` normally, ``("", True)`` for a frame
        that exceeded ``max_frame_bytes`` (its bytes are *discarded*, never
        buffered — a flood of giant frames costs one recv buffer, not the
        heap), and ``(None, False)`` on EOF, idle timeout or a dead socket.
        """
        limit = self.limits.max_frame_bytes
        discarding = False
        while True:
            index = buffer.find(b"\n")
            if index >= 0:
                frame = bytes(buffer[:index])
                del buffer[: index + 1]
                if discarding or index > limit:
                    return "", True
                return frame.decode("utf-8", "replace"), False
            if len(buffer) > limit:
                discarding = True
                buffer.clear()
            try:
                chunk = connection.recv(65536)
            except (TimeoutError, OSError):
                return None, False
            if not chunk:
                return None, False
            buffer += chunk

    # ------------------------------------------------------------------
    # The HTTP/1.1 adapter
    # ------------------------------------------------------------------

    def _serve_http(self, connection: socket.socket, peer: str) -> None:
        # An HTTP connection is one exchange; it is "busy" for the drain
        # logic from first byte to last.
        self._count("http_requests")
        with self._lock:
            self._busy.add(connection)
        writer = _ConnectionWriter(connection, peer)
        try:
            try:
                request = self._read_http_request(connection)
            except OverloadedError as error:
                self._http_respond(
                    writer, 413, {"ok": False, "error": str(error)}, close_hint=True
                )
                return
            if request is None:
                return
            try:
                self._route_http(writer, request)
            except (BrokenPipeError, OSError):
                pass  # client went away mid-response
        finally:
            with self._lock:
                self._busy.discard(connection)

    def _read_http_request(self, connection: socket.socket) -> dict | None:
        data = bytearray()
        while b"\r\n\r\n" not in data:
            if len(data) > _MAX_HTTP_HEAD_BYTES:
                raise OverloadedError("request headers too large")
            try:
                chunk = connection.recv(4096)
            except (TimeoutError, OSError):
                return None
            if not chunk:
                return None
            data += chunk
        head, _, rest = bytes(data).partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = 0
        if length > self.limits.max_frame_bytes:
            raise OverloadedError(
                f"request body exceeds the {self.limits.max_frame_bytes}-byte limit"
            )
        body = bytearray(rest)
        while len(body) < length:
            try:
                chunk = connection.recv(min(65536, length - len(body)))
            except (TimeoutError, OSError):
                return None
            if not chunk:
                break
            body += chunk
        path, _, query_text = target.partition("?")
        return {
            "method": method.upper(),
            "path": path,
            "query": urllib.parse.parse_qs(query_text),
            "headers": headers,
            "body": bytes(body),
        }

    def _http_respond(
        self,
        writer: _ConnectionWriter,
        status: int,
        payload: dict | None,
        extra_headers: dict | None = None,
        close_hint: bool = False,
    ) -> None:
        body = b"" if payload is None else (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'Unknown')}",
            "content-type: application/json",
            f"content-length: {len(body)}",
            "connection: close",
        ]
        for key, value in (extra_headers or {}).items():
            lines.append(f"{key}: {value}")
        writer.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode("utf-8") + body, kind="http")
        if close_hint:
            writer.kill()

    def _healthz_payload(self) -> dict:
        """Liveness: the process answers, full stop (even mid-drain)."""
        return {"ok": True, "status": "alive"}

    def _readyz_payload(self) -> tuple[int, dict]:
        """Readiness as ``(status_code, payload)`` (503 while draining)."""
        if self._draining.is_set():
            return 503, {"ok": False, "status": "draining"}
        return 200, {"ok": True, "status": "ready", **self._ping_payload()}

    def _dispatch(self, request: dict) -> dict:
        """Answer one op for the HTTP adapter (no stream, no connection state)."""
        return ServeSession(self.service, server=self).dispatch(request)

    def _route_http(self, writer: _ConnectionWriter, request: dict) -> None:
        method, path, query = request["method"], request["path"], request["query"]
        if path == "/healthz":
            self._http_respond(writer, 200, self._healthz_payload())
            return
        if path == "/readyz":
            status, payload = self._readyz_payload()
            headers = None
            if status != 200:
                headers = {"retry-after": str(math.ceil(self.limits.retry_after_seconds))}
            self._http_respond(writer, status, payload, extra_headers=headers)
            return
        for route_method, pattern, op, status in _HTTP_ROUTES:
            match = re.fullmatch(pattern, path)
            if match and method == route_method:
                self._http_op(writer, request, op, match.groupdict(), status)
                return
        match = re.fullmatch(r"/jobs/([^/]+)", path)
        if match:
            if method == "GET":
                self._http_job(writer, match.group(1), query)
            else:
                self._http_respond(writer, 405, {"ok": False, "error": f"method {method} not allowed"})
            return
        match = re.fullmatch(r"/jobs/([^/]+)/events", path)
        if match and method == "GET":
            self._http_events(writer, match.group(1), query)
            return
        self._http_respond(writer, 404, {"ok": False, "error": f"no route for {method} {path}"})

    def _http_op(
        self, writer: _ConnectionWriter, request: dict, op: str, fields: dict, status: int
    ) -> None:
        """One row of :data:`_HTTP_ROUTES`: the op with the path's fields
        (and, for a POST, the JSON body's) as its request."""
        if request["method"] == "POST":
            try:
                body = json.loads(request["body"].decode("utf-8") or "{}")
                if not isinstance(body, dict):
                    raise ValueError("the request body must be a JSON object")
            except (ValueError, UnicodeDecodeError) as error:
                self._http_respond(writer, 400, {"ok": False, "error": f"bad JSON body: {error}"})
                return
            body.pop("stream", None)  # inline streaming is the TCP protocol's job
            fields = {**body, **fields}
        response = self._dispatch({**fields, "op": op})
        if response["ok"] and op == "metrics":
            self._http_text(writer, prometheus_text(response["metrics"]))
        elif response["ok"]:
            self._http_respond(writer, status, response)
        elif response.get("overloaded"):
            retry_after = math.ceil(float(response.get("retry_after", 1.0)))
            self._http_respond(writer, 503, response, extra_headers={"retry-after": str(retry_after)})
        else:
            self._http_respond(writer, 404 if "job" in fields else 400, response)

    def _http_text(self, writer: _ConnectionWriter, text: str) -> None:
        """A Prometheus text exposition (``GET /metricsz``)."""
        body = text.encode("utf-8")
        lines = [
            "HTTP/1.1 200 OK",
            "content-type: text/plain; version=0.0.4; charset=utf-8",
            f"content-length: {len(body)}",
            "connection: close",
        ]
        writer.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode("utf-8") + body, kind="http")

    def _http_job(self, writer: _ConnectionWriter, job_id: str, query: dict) -> None:
        """``GET /jobs/<id>[?wait=<seconds>]``: status, plus the result once final."""
        wait_text = (query.get("wait") or ["0"])[0]
        try:
            wait_seconds = float(wait_text)
        except ValueError:
            wait_seconds = 0.0
        if wait_seconds > 0:
            self._dispatch({"op": "wait", "job": job_id, "timeout": wait_seconds})
        status_response = self._dispatch({"op": "status", "job": job_id})
        if not status_response["ok"]:
            self._http_respond(writer, 404, {"ok": False, "error": f"unknown job {job_id!r}"})
            return
        payload: dict = {
            "ok": True,
            "job": status_response.get("job", job_id),
            "kind": status_response.get("kind"),
            "status": status_response.get("status"),
            "events": status_response.get("events", 0),
        }
        if payload["status"] in TERMINAL_STATUSES:
            response = self._dispatch({"op": "result", "job": job_id, "wait": False})
            if response["ok"]:
                for key in ("report", "batch"):
                    if key in response:
                        payload[key] = response[key]
            else:
                payload["error"] = response.get("error", "")
        self._http_respond(writer, 200, payload)

    def _http_events(self, writer: _ConnectionWriter, job_id: str, query: dict) -> None:
        """Chunked NDJSON event stream, resumable via ``?since=<seq>``."""
        if not self._dispatch({"op": "status", "job": job_id})["ok"]:
            self._http_respond(writer, 404, {"ok": False, "error": f"unknown job {job_id!r}"})
            return
        try:
            since = int((query.get("since") or ["0"])[0])
        except ValueError:
            since = 0
        follow = (query.get("follow") or ["1"])[0] not in ("0", "false", "no")
        deadline = time.monotonic() + self.limits.idle_timeout

        def poll(request: dict) -> dict:
            return self._dispatch({**request, "timeout": max(0.1, min(10.0, deadline - time.monotonic()))})

        stream = follow_events(poll, job_id, since, follow=follow)
        # The backlog comes before any header is written, so a request the
        # op refuses (a negative cursor) still gets a plain 400.
        try:
            backlog = next(stream)
        except ServeError as error:
            self._http_respond(writer, 400, {"ok": False, "error": str(error)})
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "content-type: application/x-ndjson\r\n"
            "transfer-encoding: chunked\r\n"
            "connection: close\r\n\r\n"
        ).encode("utf-8")
        writer.write_bytes(head, kind="http")
        # Pull-based: this connection's thread follows the job's event log
        # in bounded long-poll slices, so a slow reader backpressures only
        # itself.  Stops once the job is terminal and the log is drained,
        # after the backlog when ``follow`` is off, or at the idle deadline.
        try:
            for events in itertools.chain([backlog], stream):
                for event in events:
                    line = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
                    chunk = f"{len(line):x}\r\n".encode("ascii") + line + b"\r\n"
                    writer.write_bytes(chunk, kind="event")
                if events:
                    deadline = time.monotonic() + self.limits.idle_timeout
                elif time.monotonic() >= deadline:
                    break
        except ServeError:
            pass  # the job left the service mid-stream; end the stream
        writer.write_bytes(b"0\r\n\r\n", kind="http")
