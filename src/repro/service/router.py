"""Sharded routing tier: one front end over N verification daemon replicas.

The :class:`JobRouter` shards work across a :class:`~repro.service.replicas.
ReplicaSupervisor` fleet by the *content hash* of the submitted protocol
(see :func:`repro.engine.cache.protocol_content_hash`) using rendezvous
(highest-random-weight) hashing::

    shard(h) = argmax over shard ids s of sha256(s + "|" + h)

Rendezvous hashing gives the two invariants the tier is built on:

* **Shard stability** — the same protocol always lands on the same replica,
  so each shard's result cache and analysis contexts partition cleanly (a repeat
  submit is a cache hit *on its own shard*, never a miss on another).
* **Minimal disruption** — changing the fleet size moves only the keys
  whose argmax changed; no global reshuffle.

The router speaks exactly the wire protocols of
:class:`~repro.service.net.NetworkServer` (JSON-lines sessions and the HTTP
adapter on one dual-protocol listener): job-scoped ops are proxied to the
owning shard with job ids namespaced as ``shard:id`` (``s0:job-3``),
fleet-wide ops (``jobs``, ``stats``, healthz/readyz) are scatter-gathered,
and SIGTERM drain propagates to every replica.  When a replica dies
mid-job, :class:`~repro.service.client.VerificationClient` retries carry
the proxied op over to the restarted replica, whose journal recovery makes
the failover lossless for every acknowledged job.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
import weakref
from typing import Sequence

from repro.service.client import (
    ClientRetryPolicy,
    OverloadedError as ClientOverloadedError,
    RequestError,
    TransportError,
    VerificationClient,
)
from repro.obs.metrics import REGISTRY, label_snapshot, merge_snapshots
from repro.service.net import (
    NetworkServer,
    _CaptureMixin,
    _ConnectionWriter,
    _EventPump,
    _ServerStatsMixin,
)
from repro.service.replicas import ReplicaError, ReplicaSupervisor
from repro.service.serve import OverloadedError, ServeError, ServeSession

logger = logging.getLogger(__name__)

#: Process-wide mirror of the router's counters (``GET /metricsz``).
_ROUTER_EVENTS = REGISTRY.counter(
    "repro_router_events_total",
    "Routing-tier traffic: routed jobs, proxied ops, failover sheds",
)
#: Routed jobs by owning shard — the per-shard ``jobs_<shard>`` counters of
#: the ``stats`` payload as one labelled metric.
_ROUTED_JOBS = REGISTRY.counter(
    "repro_router_routed_jobs_total",
    "Jobs routed to each shard by rendezvous hashing",
)

#: How long a proxied op keeps retrying through a replica restart before the
#: router sheds it as retryable (journal recovery usually needs only a few
#: seconds; this bounds the worst crash loop).
FAILOVER_TIMEOUT_SECONDS = 60.0
#: Budget per shard for scatter-gather ops (jobs, stats).
GATHER_TIMEOUT_SECONDS = 10.0
#: Slice length for proxied long-poll ops (wait / events / result); the
#: router re-issues slices until the caller's own timeout runs out, so a
#: replica crash mid-wait is noticed within one slice.
LONG_POLL_SLICE_SECONDS = 10.0


def rendezvous_shard(content_hash: str, shard_ids: Sequence[str]) -> str:
    """The owning shard of ``content_hash`` under rendezvous hashing."""
    if not shard_ids:
        raise ValueError("rendezvous hashing needs at least one shard")
    return max(
        shard_ids,
        key=lambda sid: hashlib.sha256(f"{sid}|{content_hash}".encode("utf-8")).hexdigest(),
    )


def split_job_id(job_id: str) -> tuple[str, str]:
    """Split a namespaced ``shard:local`` job id; raises ServeError otherwise."""
    shard, sep, local = str(job_id).partition(":")
    if not sep or not shard or not local:
        raise ServeError(f"unknown job {job_id!r} (router job ids look like 's0:job-1')")
    return shard, local


class _ShardLink:
    """The router's connection pool to one shard.

    Clients are per-thread (a long-poll op parked on a shared socket would
    starve every other session routed to the same shard) and keyed by the
    replica's *generation*: a restarted replica announces a new ephemeral
    port, so stale clients are discarded and rebuilt from the supervisor's
    current address.  Live clients are also registered — weakly, so a dead
    connection thread's client is collected with it rather than pinned
    open — letting :meth:`close` release the sockets at router shutdown.
    """

    def __init__(
        self,
        shard_id: str,
        supervisor: ReplicaSupervisor,
        *,
        timeout: float,
        retry: ClientRetryPolicy,
    ):
        self.shard_id = shard_id
        self._supervisor = supervisor
        self._timeout = timeout
        self._retry = retry
        self._local = threading.local()
        self._lock = threading.Lock()
        self._clients: weakref.WeakSet[VerificationClient] = weakref.WeakSet()

    def _client(self) -> VerificationClient:
        host, port, generation = self._supervisor.address(self.shard_id)
        cached = getattr(self._local, "entry", None)
        if cached is not None and cached[0] == generation:
            return cached[1]
        if cached is not None:
            cached[1].close()
        client = VerificationClient(host, port, timeout=self._timeout, retry=self._retry)
        self._local.entry = (generation, client)
        with self._lock:
            self._clients.add(client)
        return client

    def invalidate(self) -> None:
        """Drop this thread's client (the replica went away mid-exchange)."""
        cached = getattr(self._local, "entry", None)
        if cached is not None:
            cached[1].close()
            self._local.entry = None

    def call(self, payload: dict, *, deadline: float, read_timeout: float | None = None) -> dict:
        """Proxy one op, failing over across replica restarts until ``deadline``.

        The client already retries transport faults against the *current*
        address; this loop re-reads the address between rounds so a restart
        onto a new port is picked up, and keeps going until the failover
        deadline.  Whatever response arrives — ok, error, overloaded — is
        returned verbatim for the caller to relay.
        """
        while True:
            try:
                return self._client().call(payload, read_timeout=read_timeout)
            except (TransportError, ReplicaError, OSError) as error:
                self.invalidate()
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"shard {self.shard_id!r} unreachable through the failover "
                        f"window: {error}"
                    ) from error
                time.sleep(0.2)

    def close(self) -> None:
        with self._lock:
            clients = list(self._clients)
            self._clients.clear()
        for client in clients:
            client.close()


class JobRouter:
    """Routing state shared by every session of a :class:`RouterServer`."""

    def __init__(
        self,
        supervisor: ReplicaSupervisor,
        *,
        failover_timeout: float = FAILOVER_TIMEOUT_SECONDS,
        gather_timeout: float = GATHER_TIMEOUT_SECONDS,
        client_timeout: float = 120.0,
        retry: ClientRetryPolicy | None = None,
    ):
        self.supervisor = supervisor
        self.shard_ids = supervisor.shard_ids
        self.failover_timeout = failover_timeout
        self.gather_timeout = gather_timeout
        retry = retry or ClientRetryPolicy()
        self._links = {
            shard_id: _ShardLink(shard_id, supervisor, timeout=client_timeout, retry=retry)
            for shard_id in self.shard_ids
        }
        self._lock = threading.Lock()
        self.statistics = {"routed_jobs": 0, "proxied_ops": 0, "failover_sheds": 0}
        for shard_id in self.shard_ids:
            self.statistics[f"jobs_{shard_id}"] = 0

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------

    def shard_for(self, content_hash: str) -> str:
        return rendezvous_shard(content_hash, self.shard_ids)

    def routing_hash(self, request: dict) -> str:
        """The content hash a submit request routes by.

        Single submits hash the resolved protocol; batch submits hash the
        sorted per-protocol hashes, so the same batch always lands on the
        same shard (its cache) regardless of spec order.
        """
        from repro.engine.cache import protocol_content_hash
        from repro.io.loading import resolve_protocol_spec

        if "specs" in request:
            specs = request["specs"]
            if not isinstance(specs, (list, tuple)) or not specs:
                raise ServeError("submit 'specs' must be a non-empty list")
            hashes = sorted(
                protocol_content_hash(resolve_protocol_spec(spec)) for spec in specs
            )
            return hashlib.sha256("\n".join(hashes).encode("ascii")).hexdigest()
        if "protocol" in request:
            from repro.io.serialization import protocol_from_dict

            try:
                protocol = protocol_from_dict(request["protocol"])
            except Exception as error:
                raise ServeError(f"bad inline protocol: {error}") from error
            return protocol_content_hash(protocol)
        spec = request.get("spec")
        if not spec:
            raise ServeError("submit needs a 'spec', 'specs' or an inline 'protocol'")
        return protocol_content_hash(resolve_protocol_spec(spec))

    def count_routed(self, shard_id: str) -> None:
        with self._lock:
            self.statistics["routed_jobs"] += 1
            self.statistics[f"jobs_{shard_id}"] += 1
        _ROUTER_EVENTS.inc(event="routed_jobs")
        _ROUTED_JOBS.inc(shard=shard_id)

    def statistics_snapshot(self) -> dict:
        with self._lock:
            return dict(self.statistics)

    def metrics_payload(self) -> dict:
        """The fleet-wide metrics snapshot behind ``/metricsz``.

        Every reachable shard's registry snapshot (scatter-gathered over
        the ``metrics`` op) is stamped with a ``shard`` label, the router's
        own registry with ``shard="router"``, and the lot merged into one
        snapshot — every time series in the result says which process it
        came from, and the sum is rendered as a single valid Prometheus
        exposition (one HELP/TYPE per metric).  Unreachable shards are
        simply absent, mirroring the ``stats`` op's fleet view.
        """
        gathered = self.gather({"op": "metrics"})
        snapshots = []
        for shard_id in self.shard_ids:
            response = gathered.get(shard_id)
            if response and response.get("ok") and isinstance(response.get("metrics"), dict):
                snapshots.append(label_snapshot(response["metrics"], shard=shard_id))
        snapshots.append(label_snapshot(REGISTRY.snapshot(), shard="router"))
        return merge_snapshots(*snapshots)

    # ------------------------------------------------------------------
    # Proxying
    # ------------------------------------------------------------------

    def shard_call(
        self, shard_id: str, payload: dict, *, read_timeout: float | None = None
    ) -> dict:
        """One proxied op with failover; raises OverloadedError when a shard
        stays unreachable past the failover window (retryable — the caller
        should come back once the replica has restarted)."""
        link = self._links.get(shard_id)
        if link is None:
            raise ServeError(f"unknown shard {shard_id!r}")
        with self._lock:
            self.statistics["proxied_ops"] += 1
        _ROUTER_EVENTS.inc(event="proxied_ops")
        deadline = time.monotonic() + self.failover_timeout
        try:
            return link.call(payload, deadline=deadline, read_timeout=read_timeout)
        except TransportError as error:
            with self._lock:
                self.statistics["failover_sheds"] += 1
            _ROUTER_EVENTS.inc(event="failover_sheds")
            raise OverloadedError(str(error), retry_after=1.0) from error

    def gather(self, payload: dict) -> dict:
        """Scatter one op to every shard in parallel; unreachable shards map
        to ``None`` instead of sinking the whole fleet view."""
        results: dict = {shard_id: None for shard_id in self.shard_ids}

        def ask(shard_id: str) -> None:
            deadline = time.monotonic() + self.gather_timeout
            try:
                results[shard_id] = self._links[shard_id].call(
                    dict(payload), deadline=deadline, read_timeout=self.gather_timeout
                )
            except (TransportError, ClientOverloadedError, RequestError):
                results[shard_id] = None

        threads = [
            threading.Thread(target=ask, args=(shard_id,), name=f"repro-gather-{shard_id}")
            for shard_id in self.shard_ids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.gather_timeout + FAILOVER_TIMEOUT_SECONDS)
        return results

    def close(self) -> None:
        for link in self._links.values():
            link.close()


class RouterSession(ServeSession):
    """A serve session that proxies every op to the owning shard.

    Reuses :class:`ServeSession`'s request loop (framing, error mapping,
    overload responses) with every handler replaced by a proxying one; it
    holds no :class:`VerificationService` (``self.service`` is ``None``).
    """

    def __init__(self, router: JobRouter, input_stream=None, output_stream=None):
        super().__init__(None, input_stream, output_stream, owns_service=False)
        self.router = router
        self._streams: list[threading.Event] = []

    # -- lifecycle -----------------------------------------------------

    def close_session(self) -> None:
        """End the session: stop event pumps; jobs stay put.

        Every shard runs on a durable journal, so — exactly like the
        journalled branch of the base class — nothing is cancelled when a
        connection goes away: jobs remain pollable from other sessions.
        """
        if self._session_closed:
            return
        self._session_closed = True
        for stop in self._streams:
            stop.set()

    # -- helpers -------------------------------------------------------

    def _parse_job(self, request: dict) -> tuple[str, str]:
        job_id = request.get("job")
        if not job_id:
            raise ServeError("this op needs a 'job' id")
        shard, local = split_job_id(job_id)
        if shard not in self.router.shard_ids:
            raise ServeError(f"unknown job {job_id!r} (no shard {shard!r})")
        return shard, local

    @staticmethod
    def _forwardable(request: dict) -> dict:
        return {key: value for key, value in request.items() if key != "id"}

    def _namespace(self, shard: str, payload: dict) -> dict:
        """Rewrite shard-local job ids in a response to ``shard:id`` form."""
        if isinstance(payload.get("job"), str):
            payload["job"] = f"{shard}:{payload['job']}"
        events = payload.get("events")
        if isinstance(events, list):  # status responses carry an int count here
            for event in events:
                if isinstance(event, dict) and isinstance(event.get("job_id"), str):
                    event["job_id"] = f"{shard}:{event['job_id']}"
        return payload

    def _relay(self, shard: str, response: dict, request_id) -> bool:
        """Forward a shard's response verbatim (ids namespaced, ours re-stamped)."""
        payload = {
            key: value for key, value in response.items() if key not in ("id", "type")
        }
        self._namespace(shard, payload)
        payload.setdefault("ok", False)
        payload["shard"] = shard
        if request_id is not None:
            payload["id"] = request_id
        payload["type"] = "response"
        self._write(payload)
        return False

    def _proxy(self, request: dict, request_id) -> bool:
        """The generic job-scoped proxy: parse the namespace, forward, relay."""
        shard, local = self._parse_job(request)
        forward = self._forwardable(request)
        forward["job"] = local
        response = self.router.shard_call(shard, forward)
        return self._relay(shard, response, request_id)

    def _proxy_sliced(self, request: dict, *, finished) -> tuple[str, dict]:
        """Proxy a blocking op (wait/events) in bounded slices.

        A proxied long poll must not park on one shard exchange for
        minutes: the slice bounds how long a dead replica can hold the op
        before failover kicks in, and ``finished(response)`` says when the
        shard's answer is final.  The caller's own ``timeout`` (None =
        forever) is honoured across slices.  Returns ``(shard, response)``
        for the handler to relay.
        """
        shard, local = self._parse_job(request)
        timeout = request.get("timeout")
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        while True:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            slice_seconds = (
                LONG_POLL_SLICE_SECONDS
                if remaining is None
                else min(LONG_POLL_SLICE_SECONDS, remaining)
            )
            forward = self._forwardable(request)
            forward["job"] = local
            forward["timeout"] = slice_seconds
            response = self.router.shard_call(
                shard, forward, read_timeout=slice_seconds + 30.0
            )
            if not response.get("ok") or finished(response):
                return shard, response
            if remaining is not None and remaining <= slice_seconds:
                return shard, response

    # -- handlers ------------------------------------------------------

    def _handle_submit(self, request: dict, request_id) -> bool:
        self._admit_job(request)
        content_hash = self.router.routing_hash(request)
        shard = self.router.shard_for(content_hash)
        forward = self._forwardable(request)
        stream = bool(forward.pop("stream", False))
        response = self.router.shard_call(shard, forward)
        if response.get("ok"):
            self.router.count_routed(shard)
            local_id = response.get("job", "")
            self._session_jobs.append(f"{shard}:{local_id}")
            if stream:
                self._start_stream(shard, local_id)
        return self._relay(shard, response, request_id)

    def _handle_status(self, request: dict, request_id) -> bool:
        return self._proxy(request, request_id)

    def _handle_cancel(self, request: dict, request_id) -> bool:
        return self._proxy(request, request_id)

    def _handle_events(self, request: dict, request_id) -> bool:
        if not request.get("wait"):
            return self._proxy(request, request_id)
        since = int(request.get("since", 0))

        def finished(response: dict) -> bool:
            return bool(response.get("events")) or response.get("next", since) > since or (
                response.get("status") in ("done", "failed", "cancelled")
            )

        shard, response = self._proxy_sliced(request, finished=finished)
        return self._relay(shard, response, request_id)

    def _handle_wait(self, request: dict, request_id) -> bool:
        shard, response = self._proxy_sliced(
            request, finished=lambda response: bool(response.get("finished"))
        )
        return self._relay(shard, response, request_id)

    def _handle_result(self, request: dict, request_id) -> bool:
        shard, local = self._parse_job(request)
        if request.get("wait", True):
            # Settle the job with sliced waits first, then fetch the result
            # in one non-blocking op (the result payload itself can be big;
            # no reason to re-ship it per slice).
            wait_request = {"op": "wait", "job": request["job"]}
            if "timeout" in request:
                wait_request["timeout"] = request["timeout"]
            _, probe = self._proxy_sliced(
                wait_request, finished=lambda response: bool(response.get("finished"))
            )
            if not probe.get("ok"):
                return self._relay(shard, probe, request_id)
        forward = self._forwardable(request)
        forward["job"] = local
        forward["wait"] = False
        forward.pop("timeout", None)
        response = self.router.shard_call(shard, forward)
        return self._relay(shard, response, request_id)

    def _handle_jobs(self, request: dict, request_id) -> bool:
        gathered = self.router.gather({"op": "jobs"})
        jobs: list = []
        shards: dict = {}
        for shard_id in self.router.shard_ids:
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
        self._respond(request_id, op="jobs", jobs=jobs, shards=shards)
        return False

    def _stats_payload(self) -> dict:
        gathered = self.router.gather({"op": "stats"})
        shards = {
            shard_id: (response or {}).get("stats")
            for shard_id, response in gathered.items()
        }
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
        return {
            "router": self.router.statistics_snapshot(),
            "supervisor": dict(self.router.supervisor.statistics),
            "fleet": self.router.supervisor.fleet_status(),
            "shards": shards,
            "incremental": {"core_retention_by_shard": retention, "totals": totals},
        }

    def _handle_stats(self, request: dict, request_id) -> bool:
        self._respond(request_id, op="stats", stats=self._stats_payload())
        return False

    def _metrics_payload(self) -> dict:
        return self.router.metrics_payload()

    def _handle_metrics(self, request: dict, request_id) -> bool:
        self._respond(request_id, op="metrics", metrics=self._metrics_payload())
        return False

    def _handle_shutdown(self, request: dict, request_id) -> bool:
        # Ends this session only; fleet shutdown is the drain path's job
        # (SIGTERM on the router propagates to every replica).
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

    # -- event streaming -----------------------------------------------

    def _stream_raw(self, payload: dict) -> None:
        """Deliver one proxied stream line (overridden by the net session
        to go through the bounded event pump)."""
        self._write(payload)

    def _start_stream(self, shard: str, local_id: str) -> None:
        """Pump one job's events from its shard into this session.

        The shard's push stream belongs to the shard's own connection, so
        the router long-polls the ``events`` op instead (short slices, a
        stop flag checked between slices) and pushes each event here with
        the job id namespaced — the client sees exactly the stream a
        direct connection would have shown.
        """
        stop = threading.Event()
        self._streams.append(stop)
        namespaced = f"{shard}:{local_id}"

        def pump() -> None:
            since = 0
            while not stop.is_set():
                try:
                    response = self.router.shard_call(
                        shard,
                        {
                            "op": "events",
                            "job": local_id,
                            "since": since,
                            "wait": True,
                            "timeout": 2.0,
                        },
                        read_timeout=32.0,
                    )
                except (OverloadedError, ServeError):
                    return  # the shard stayed down past failover; stop quietly
                if not response.get("ok"):
                    return
                events = response.get("events", [])
                for event in events:
                    if isinstance(event, dict) and isinstance(event.get("job_id"), str):
                        event["job_id"] = namespaced
                    if stop.is_set():
                        return
                    self._stream_raw({"type": "event", "job": namespaced, "event": event})
                since = response.get("next", since + len(events))
                if not events and response.get("status") in ("done", "failed", "cancelled"):
                    return

        threading.Thread(
            target=pump, name=f"repro-router-stream-{namespaced}", daemon=True
        ).start()


class _RouterNetSession(_ServerStatsMixin, RouterSession):
    """One TCP connection's router session (mirrors ``_NetSession``)."""

    def __init__(self, server: "RouterServer", writer: _ConnectionWriter, pump: _EventPump):
        super().__init__(server.router)
        self._server = server
        self._writer = writer
        self._pump = pump

    def _write(self, payload: dict) -> None:
        self._writer.write_line(payload, kind="response")

    def _stream_raw(self, payload: dict) -> None:
        self._pump.push(payload)


class _RouterCaptureSession(_ServerStatsMixin, _CaptureMixin, RouterSession):
    """A response-capturing router session (one HTTP request's op)."""

    def __init__(self, server: "RouterServer"):
        super().__init__(server.router)
        self._server = server
        self.responses: list = []


class RouterServer(NetworkServer):
    """The router's network front end: the ``NetworkServer`` machinery
    (dual-protocol listener, connection shedding, drain choreography) with
    every session proxying through a :class:`JobRouter` instead of serving
    a local :class:`VerificationService`."""

    def __init__(self, router: JobRouter, host: str = "127.0.0.1", port: int = 0, *, limits=None):
        super().__init__(None, host, port, limits=limits, owns_service=True)
        self.router = router

    # -- session factories ---------------------------------------------

    def _make_session(self, writer: _ConnectionWriter, pump: _EventPump) -> ServeSession:
        return _RouterNetSession(self, writer, pump)

    def _make_capture(self):
        return _RouterCaptureSession(self)

    def metrics_payload(self) -> dict:
        return self.router.metrics_payload()

    # -- admission and health ------------------------------------------

    def check_job_admission(self) -> None:
        retry_after = self.limits.retry_after_seconds
        if self._draining.is_set():
            raise OverloadedError(
                "router is draining; submit elsewhere or retry later", retry_after
            )
        limit = self.limits.max_pending_jobs
        if limit:
            pending = self.router.supervisor.fleet_pending()
            if pending >= limit * len(self.router.shard_ids):
                self._count("shed_jobs")
                raise OverloadedError(
                    f"fleet job queues are full ({pending} pending); retry later",
                    retry_after,
                )

    def _ping_payload(self) -> dict:
        with self._lock:
            connections = len(self._connections)
        return {
            "accepting": not self._draining.is_set(),
            "connections": connections,
            "pending_jobs": self.router.supervisor.fleet_pending(),
            "shards": len(self.router.shard_ids),
        }

    def _healthz_payload(self) -> dict:
        return {
            "ok": True,
            "status": "alive",
            "shards": self.router.supervisor.fleet_status(),
        }

    def _readyz_payload(self) -> tuple[int, dict]:
        if self._draining.is_set():
            return 503, {"ok": False, "status": "draining"}
        fleet = self.router.supervisor.fleet_status()
        ready = [shard_id for shard_id, state in fleet.items() if state["alive"]]
        if not ready:
            return 503, {"ok": False, "status": "no shard alive", "shards": fleet}
        return 200, {
            "ok": True,
            "status": "ready",
            "shards_ready": len(ready),
            **self._ping_payload(),
        }

    # -- drain ----------------------------------------------------------

    def _close_service(self, budget: float) -> bool:
        """Drain propagation: SIGTERM every replica and wait out their own
        journal-preserving drains; then release the shard connections."""
        graceful = self.router.supervisor.drain(timeout=max(1.0, budget))
        self.router.close()
        return graceful


def announce(server: RouterServer) -> str:
    """The router's ``listening`` line (same shape as serve's, plus shards)."""
    host, port = server.address
    return json.dumps(
        {
            "type": "listening",
            "host": host,
            "port": port,
            "protocols": ["jsonl", "http"],
            "shards": len(server.router.shard_ids),
        }
    )
