"""Tests of the sharded routing tier (:mod:`repro.service.router`).

The unit layer exercises rendezvous hashing and job-id namespacing with no
processes at all.  The integration layer runs a real fleet: two
``repro-verify serve --tcp`` subprocess replicas under a
:class:`ReplicaSupervisor`, fronted by an in-process :class:`RouterServer`
on an ephemeral port, driven through :class:`VerificationClient` and
``http.client`` — the same two wire protocols a direct daemon serves.  The
shared fleet is module-scoped (subprocess spawns are the expensive part);
the failover test builds its own disposable fleet so SIGKILLing a replica
cannot perturb its neighbours.
"""

from __future__ import annotations

import http.client
import json
import socket
import time

import pytest

from repro.service import VerificationClient
from repro.service.client import RequestError
from repro.service.replicas import ReplicaSupervisor, supervisor_statistics
from repro.service.router import (
    JobRouter,
    RouterServer,
    rendezvous_shard,
    split_job_id,
)
from repro.service.serve import ServeError


# ----------------------------------------------------------------------
# Unit layer: hashing and namespacing (no processes)
# ----------------------------------------------------------------------


class TestRendezvousHashing:
    def test_deterministic(self):
        shards = ["s0", "s1", "s2"]
        key = "a" * 64
        assert rendezvous_shard(key, shards) == rendezvous_shard(key, shards)
        assert rendezvous_shard(key, list(reversed(shards))) == rendezvous_shard(key, shards)

    def test_spreads_keys(self):
        shards = ["s0", "s1", "s2", "s3"]
        owners = {rendezvous_shard(f"key-{index}", shards) for index in range(64)}
        assert owners == set(shards)

    def test_minimal_disruption_on_shard_loss(self):
        """Removing one shard moves only that shard's keys."""
        shards = ["s0", "s1", "s2"]
        keys = [f"key-{index}" for index in range(128)]
        before = {key: rendezvous_shard(key, shards) for key in keys}
        survivors = ["s0", "s1"]
        for key in keys:
            after = rendezvous_shard(key, survivors)
            if before[key] != "s2":
                assert after == before[key], f"{key} moved without its shard dying"

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            rendezvous_shard("key", [])


class TestJobIdNamespacing:
    def test_round_trip(self):
        assert split_job_id("s0:job-1") == ("s0", "job-1")

    def test_local_id_may_contain_colons(self):
        assert split_job_id("s1:weird:id") == ("s1", "weird:id")

    @pytest.mark.parametrize("bad", ["job-1", ":job-1", "s0:", ""])
    def test_unnamespaced_ids_rejected(self, bad):
        with pytest.raises(ServeError):
            split_job_id(bad)


class TestRoutingHash:
    def test_same_spec_same_hash(self):
        router = JobRouter.__new__(JobRouter)  # hashing needs no fleet
        first = JobRouter.routing_hash(router, {"spec": "majority"})
        second = JobRouter.routing_hash(router, {"spec": "majority"})
        assert first == second and len(first) == 64

    def test_batch_hash_ignores_spec_order(self):
        router = JobRouter.__new__(JobRouter)
        forward = JobRouter.routing_hash(router, {"specs": ["majority", "broadcast"]})
        backward = JobRouter.routing_hash(router, {"specs": ["broadcast", "majority"]})
        assert forward == backward

    def test_submit_without_protocol_rejected(self):
        router = JobRouter.__new__(JobRouter)
        with pytest.raises(ServeError):
            JobRouter.routing_hash(router, {})


# ----------------------------------------------------------------------
# Integration layer: a real 2-shard fleet behind an in-process router
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A started RouterServer over two subprocess replicas; drains on exit."""
    supervisor = ReplicaSupervisor(
        2, tmp_path_factory.mktemp("fleet"), workers=2, probe_interval=0.2
    )
    supervisor.start()
    router = JobRouter(supervisor)
    server = RouterServer(router)
    server.start()
    yield server
    assert server.drain(timeout=60), "the fleet did not drain gracefully"


def make_client(server, **kwargs) -> VerificationClient:
    host, port = server.address
    kwargs.setdefault("timeout", 120.0)
    kwargs.setdefault("seed", 0)
    return VerificationClient(host, port, **kwargs)


def http_request(server, method: str, path: str, body: dict | None = None, timeout: float = 60):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"content-type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def test_submit_routes_and_namespaces(fleet):
    with make_client(fleet) as client:
        job = client.submit("majority")
        shard, local = split_job_id(job)
        assert shard in fleet.router.shard_ids and local.startswith("job-")
        assert client.wait(job, timeout=120) == "done"
        payload = client.result(job)
        assert any(
            entry["property"] == "ws3" and entry["verdict"] == "holds"
            for entry in payload["report"]["properties"]
        )
        status = client.status(job)
        assert status["job"] == job and status["status"] == "done"


def test_same_protocol_same_shard_cache_hit(fleet):
    with make_client(fleet) as client:
        first = client.submit("broadcast")
        assert client.wait(first, timeout=120) == "done"
        repeat = client.submit("broadcast")
        assert split_job_id(repeat)[0] == split_job_id(first)[0]
        assert client.wait(repeat, timeout=120) == "done"
        stats = client.call({"op": "stats"})["stats"]
        owner = split_job_id(first)[0]
        assert stats["shards"][owner]["cache"]["hits"] >= 1


def test_batch_submit_is_sharded_and_proxied(fleet):
    with make_client(fleet) as client:
        job = client.submit(specs=["majority", "broadcast"])
        shard, _ = split_job_id(job)
        assert shard in fleet.router.shard_ids
        assert client.wait(job, timeout=120) == "done"
        batch = client.result(job)["batch"]
        assert {item["protocol"] for item in batch["items"]} == {"majority", "broadcast"}


def test_jobs_scatter_gathers_all_shards(fleet):
    with make_client(fleet) as client:
        submitted = {client.submit("majority"), client.submit("flock-of-birds:4")}
        for job in submitted:
            client.wait(job, timeout=120)
        response = client.call({"op": "jobs"})
        assert response["ok"]
        assert set(response["shards"]) == set(fleet.router.shard_ids)
        assert all(state == "ok" for state in response["shards"].values())
        listed = {entry["job"] for entry in response["jobs"]}
        assert submitted <= listed
        assert all(split_job_id(job)[0] in fleet.router.shard_ids for job in listed)


def test_stats_aggregates_fleet(fleet):
    with make_client(fleet) as client:
        response = client.call({"op": "stats"})
        stats = response["stats"]
        assert set(stats["shards"]) == set(fleet.router.shard_ids)
        for shard_stats in stats["shards"].values():
            assert shard_stats["journal"] is not None  # every shard is durable
        assert stats["router"]["routed_jobs"] >= 1
        assert "connections" in stats["server"]
        assert all(state["alive"] for state in stats["fleet"].values())


def test_events_proxied_with_namespaced_ids(fleet):
    with make_client(fleet) as client:
        job = client.submit("majority")
        events = list(client.events(job, poll_timeout=5.0))
        assert events, "no events proxied through the router"
        assert all(event["job_id"] == job for event in events)
        assert any(event["event"] == "job_finished" for event in events)


def test_streamed_submit_pumps_namespaced_events(fleet):
    host, port = fleet.address
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.settimeout(60)
        reader = sock.makefile("r", encoding="utf-8", newline="\n")
        sock.sendall((json.dumps({"op": "submit", "spec": "majority", "stream": True, "id": 1}) + "\n").encode())
        submitted = json.loads(reader.readline())
        assert submitted["ok"] and ":" in submitted["job"]
        job = submitted["job"]
        deadline = time.monotonic() + 60
        finished = False
        while time.monotonic() < deadline and not finished:
            line = json.loads(reader.readline())
            if line.get("type") != "event":
                continue
            assert line["job"] == job
            assert line["event"]["job_id"] == job
            finished = line["event"]["event"] == "job_finished"
        assert finished, "streamed router session never saw job_finished"
        reader.close()


def test_cancel_proxied(fleet, tmp_path):
    with make_client(fleet) as client:
        # A queue-deep batch on one shard: cancel the last submit before it
        # runs.  Cancellation is cooperative — ``cancelled`` only means the
        # request landed before the job finished, so a job already running
        # may still complete ``done`` — but a job that ends ``cancelled``
        # must have no result, and the cancel must proxy to the right shard.
        jobs = [client.submit(specs=["flock-of-birds:4"] * 3) for _ in range(3)]
        cancelled = client.cancel(jobs[-1])
        statuses = {job: client.wait(job, timeout=120) for job in jobs}
        assert statuses[jobs[-1]] in ("cancelled", "done")
        if statuses[jobs[-1]] == "cancelled":
            assert cancelled
            with pytest.raises(RequestError):
                client.result(jobs[-1])


def test_unknown_job_ids_fail_cleanly(fleet):
    with make_client(fleet) as client:
        for bad in ("job-1", "s9:job-1", "s0:job-999"):
            response = client.call({"op": "status", "job": bad})
            assert not response["ok"]
            assert "unknown" in response["error"]


def test_http_healthz_readyz_aggregate(fleet):
    status, payload = http_request(fleet, "GET", "/healthz")
    assert status == 200
    assert set(payload["shards"]) == set(fleet.router.shard_ids)
    status, payload = http_request(fleet, "GET", "/readyz")
    assert status == 200
    assert payload["shards"] == len(fleet.router.shard_ids)
    assert payload["shards_ready"] >= 1


def test_http_metricsz_aggregates_shards(fleet):
    from repro.obs.metrics import parse_prometheus_text

    # Make sure at least one job routed through a shard before scraping.
    status, payload = http_request(fleet, "POST", "/jobs", body={"spec": "majority"})
    assert status == 202
    status, payload = http_request(fleet, "GET", f"/jobs/{payload['job']}?wait=120")
    assert status == 200 and payload["status"] == "done"

    host, port = fleet.address
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("GET", "/metricsz")
        response = conn.getresponse()
        assert response.status == 200
        assert response.headers.get("content-type", "").startswith("text/plain")
        text = response.read().decode("utf-8")
    finally:
        conn.close()

    samples = parse_prometheus_text(text)  # raises on malformed lines
    # Every series is stamped with the process it came from; the router's
    # own counters and at least one replica's must both be present.
    shards = {
        labels.get("shard")
        for rows in samples.values()
        for labels, _ in rows
    }
    assert "router" in shards
    assert shards & set(fleet.router.shard_ids), f"no shard series in {shards}"
    routed = {
        labels["shard"]: value
        for labels, value in samples.get("repro_router_routed_jobs_total", [])
    }
    assert sum(routed.values()) >= 1
    # The shard that verified the job reports its job latency, labelled.
    job_counts = {
        labels.get("shard"): value
        for labels, value in samples.get("repro_job_seconds_count", [])
    }
    assert any(
        shard in fleet.router.shard_ids and value >= 1
        for shard, value in job_counts.items()
    )


def test_metrics_op_merges_fleet_snapshot(fleet):
    with make_client(fleet) as client:
        job = client.submit("majority")
        assert client.wait(job, timeout=120) == "done"
        response = client.call({"op": "metrics"})
    assert response["ok"] is True
    snapshot = response["metrics"]
    assert set(snapshot) == {"counters", "gauges", "histograms"}
    router_series = snapshot["counters"]["repro_router_events_total"]["series"]
    assert any('"shard":"router"' in key for key in router_series)


def test_http_statsz_and_jobs_listing(fleet):
    status, payload = http_request(fleet, "POST", "/jobs", body={"spec": "majority"})
    assert status == 202
    job = payload["job"]
    status, payload = http_request(fleet, "GET", f"/jobs/{job}?wait=120")
    assert status == 200 and payload["status"] == "done"
    assert "report" in payload

    status, payload = http_request(fleet, "GET", "/jobs")
    assert status == 200
    assert job in {entry["job"] for entry in payload["jobs"]}

    status, payload = http_request(fleet, "GET", "/statsz")
    assert status == 200
    assert set(payload["stats"]["shards"]) == set(fleet.router.shard_ids)
    assert payload["stats"]["server"]["http_requests"] >= 1


def test_http_404_for_unknown_namespaced_job(fleet):
    status, _ = http_request(fleet, "GET", "/jobs/s0:job-999")
    assert status == 404
    status, _ = http_request(fleet, "GET", "/jobs/not-namespaced")
    assert status == 404


def test_every_op_is_answered_by_the_router(fleet):
    """Each op of the serve table, answered over the router's line protocol."""
    from repro.service.serve import OPS

    with make_client(fleet) as client:
        job = client.submit("broadcast")
        requests = {
            "submit": {"op": "submit", "spec": "broadcast"},
            "status": {"op": "status", "job": job},
            "wait": {"op": "wait", "job": job, "timeout": 120},
            "events": {"op": "events", "job": job, "since": 0, "wait": True},
            "result": {"op": "result", "job": job, "timeout": 120},
            "cancel": {"op": "cancel", "job": job},
            "jobs": {"op": "jobs"},
            "stats": {"op": "stats"},
            "metrics": {"op": "metrics"},
            "shutdown": {"op": "shutdown"},
        }
        assert set(requests) == set(OPS), "a table op has no request here"
        for name, request in requests.items():
            response = client.call(request)
            assert response["ok"] is True, (name, response)
            assert response["op"] == name


# ----------------------------------------------------------------------
# Failover: a disposable fleet whose replica dies mid-job
# ----------------------------------------------------------------------


def test_replica_sigkill_failover_is_lossless(tmp_path):
    supervisor = ReplicaSupervisor(2, tmp_path / "fleet", workers=1, probe_interval=0.1)
    restarts = supervisor_statistics()["restarts"]
    supervisor.start()
    server = RouterServer(JobRouter(supervisor))
    server.start()
    try:
        with make_client(server) as client:
            jobs = [client.submit(spec) for spec in ("majority", "broadcast", "flock-of-birds:4")]
            victim = split_job_id(jobs[0])[0]
            assert supervisor.kill(victim) is not None
            # Every acknowledged job still finishes: the supervisor restarts
            # the victim on its journal and the proxied ops fail over.
            for job in jobs:
                assert client.wait(job, timeout=180) == "done"
                assert "report" in client.result(job)
        assert supervisor.fleet_status()[victim]["restarts"] >= 1
        assert supervisor_statistics()["restarts"] > restarts
    finally:
        assert server.drain(timeout=60)


def test_drain_propagates_to_replicas(tmp_path):
    supervisor = ReplicaSupervisor(1, tmp_path / "fleet", workers=1)
    supervisor.start()
    server = RouterServer(JobRouter(supervisor))
    server.start()
    host, port, _ = supervisor.address("s0")
    assert server.drain(timeout=60)
    # The replica's listener must be gone: the fleet died with the router.
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=2).close()
