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
adapter on one dual-protocol listener), from the same op table
(:data:`repro.service.serve.OPS`); it dispatches each op by its routing
class.  ``owner`` ops are proxied to the owning shard with job ids
namespaced as ``shard:id`` (``s0:job-3``), ``gather`` ops (``jobs``,
``stats``, ``metrics``) are scattered to every shard and merged by their
table entry, healthz/readyz aggregate the fleet, and SIGTERM drain
propagates to every replica.  When a replica dies
mid-job, :class:`~repro.service.client.VerificationClient` retries carry
the proxied op over to the restarted replica, whose journal recovery makes
the failover lossless for every acknowledged job.
"""

from __future__ import annotations

import hashlib
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
from repro.obs.metrics import REGISTRY
from repro.service.net import NetworkServer
from repro.service.replicas import ReplicaError, ReplicaSupervisor
from repro.service.serve import (
    Op,
    OverloadedError,
    ServeError,
    ServeSession,
    follow_events,
    submitted_protocols,
)

logger = logging.getLogger(__name__)

#: This process's routing counters: the ``router`` block of the ``stats``
#: op (:meth:`JobRouter.statsz_payload`) and ``GET /metricsz``.
_ROUTER_EVENTS = REGISTRY.counter(
    "repro_router_events_total",
    "Routing-tier traffic: routed jobs, proxied ops, failover sheds",
)
#: Routed jobs by owning shard — the ``jobs_<shard>`` keys of that block.
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
    """Routing state shared by every session of a :class:`RouterServer`,
    and the step that serves a table op by its routing class (:meth:`route`)."""

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

        hashes = [protocol_content_hash(protocol) for protocol in submitted_protocols(request)]
        if "specs" in request:
            return hashlib.sha256("\n".join(sorted(hashes)).encode("ascii")).hexdigest()
        return hashes[0]

    def count_routed(self, shard_id: str) -> None:
        _ROUTER_EVENTS.inc(event="routed_jobs")
        _ROUTED_JOBS.inc(shard=shard_id)

    def statsz_payload(self) -> dict:
        """This process's routing counters, plus the jobs routed to each shard."""
        stats = _ROUTER_EVENTS.counts(("routed_jobs", "proxied_ops", "failover_sheds"))
        for shard_id, routed in _ROUTED_JOBS.counts(self.shard_ids, label="shard").items():
            stats[f"jobs_{shard_id}"] = routed
        return stats

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
        _ROUTER_EVENTS.inc(event="proxied_ops")
        deadline = time.monotonic() + self.failover_timeout
        try:
            return link.call(payload, deadline=deadline, read_timeout=read_timeout)
        except TransportError as error:
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

    # ------------------------------------------------------------------
    # Dispatch by routing class
    # ------------------------------------------------------------------

    def route(self, session: ServeSession, op: Op, request: dict) -> dict:
        """Serve one op of ``session`` by its routing class; returns the body."""
        if op.route == "gather":
            return op.merge(session, self.gather({"op": op.name}))
        forward = {key: value for key, value in request.items() if key != "id"}
        if not op.needs_job:
            return self._submit(session, forward)
        job_id = request["job"]
        shard, forward["job"] = split_job_id(job_id)
        if shard not in self.shard_ids:
            raise ServeError(f"unknown job {job_id!r} (no shard {shard!r})")
        poll = op.long_poll(request) if op.long_poll else None
        if poll is not None:
            probe, settled = poll
            if probe is request:
                return self._relay(shard, self._sliced(shard, forward, settled))
            response = self._sliced(shard, {**probe, "job": forward["job"]}, settled)
            if not response.get("ok"):
                return self._relay(shard, response)
            # Settled: run the op itself without blocking.
            forward["wait"] = False
            forward.pop("timeout", None)
        return self._relay(shard, self.shard_call(shard, forward))

    def _submit(self, session: ServeSession, forward: dict) -> dict:
        """Route a submit to the shard owning its content hash."""
        session.admit()
        shard = self.shard_for(self.routing_hash(forward))
        stream = bool(forward.pop("stream", False))
        response = self.shard_call(shard, forward)
        if response.get("ok"):
            self.count_routed(shard)
            if stream:
                # After the reply is written, so the client learns the job
                # id before the job's first event reaches it.
                local_id = response.get("job", "")
                session.after_reply(lambda: self._stream(session, shard, local_id))
        return self._relay(shard, response)

    @staticmethod
    def _relay(shard: str, response: dict) -> dict:
        """A shard's response as the body of ours (job ids namespaced)."""
        body = {key: value for key, value in response.items() if key not in ("id", "type")}
        if isinstance(body.get("job"), str):
            body["job"] = f"{shard}:{body['job']}"
        events = body.get("events")
        if isinstance(events, list):  # status responses carry an int count here
            for event in events:
                if isinstance(event, dict) and isinstance(event.get("job_id"), str):
                    event["job_id"] = f"{shard}:{event['job_id']}"
        body.setdefault("ok", False)
        body["shard"] = shard
        return body

    def _sliced(self, shard: str, forward: dict, settled) -> dict:
        """Proxy a blocking op in bounded slices.

        A proxied long poll must not park on one shard exchange for
        minutes: the slice bounds how long a dead replica can hold the op
        before failover kicks in, and ``settled(response)`` says when the
        shard's answer is final.  The caller's own ``timeout`` (None =
        forever) is honoured across slices.
        """
        timeout = forward.get("timeout")
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        while True:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            slice_seconds = (
                LONG_POLL_SLICE_SECONDS
                if remaining is None
                else min(LONG_POLL_SLICE_SECONDS, remaining)
            )
            response = self.shard_call(
                shard, {**forward, "timeout": slice_seconds}, read_timeout=slice_seconds + 30.0
            )
            if not response.get("ok") or settled(response):
                return response
            if remaining is not None and remaining <= slice_seconds:
                return response

    def _stream(self, session: ServeSession, shard: str, local_id: str) -> None:
        """Pump one job's events from its shard into ``session``.

        The shard's push stream belongs to the shard's own connection, so
        the router follows the ``events`` op instead (short long-poll
        slices, a stop flag checked between them) and pushes each event
        into the session's sink with the job id namespaced — the client
        sees exactly the stream a direct connection would have shown.
        """
        stop = threading.Event()
        session.on_close(stop.set)
        namespaced = f"{shard}:{local_id}"

        def poll(request: dict) -> dict:
            return self.shard_call(shard, {**request, "timeout": 2.0}, read_timeout=32.0)

        def pump() -> None:
            try:
                for events in follow_events(poll, local_id):
                    if stop.is_set():
                        return
                    for event in events:
                        if isinstance(event, dict) and isinstance(event.get("job_id"), str):
                            event["job_id"] = namespaced
                        session.sink({"type": "event", "job": namespaced, "event": event})
            except (OverloadedError, ServeError):
                return  # the shard stayed down past failover; stop quietly

        threading.Thread(
            target=pump, name=f"repro-router-stream-{namespaced}", daemon=True
        ).start()


class RouterServer(NetworkServer):
    """The router's network front end: the ``NetworkServer`` machinery
    (dual-protocol listener, connection shedding, drain choreography) with
    every session routing through a :class:`JobRouter` instead of serving
    a local :class:`VerificationService`."""

    def __init__(self, router: JobRouter, host: str = "127.0.0.1", port: int = 0, *, limits=None):
        super().__init__(None, host, port, limits=limits, owns_service=True)
        self.router = router

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

