"""Tests of the TCP/HTTP network serving tier (:mod:`repro.service.net`).

Everything here runs in-process: a real :class:`NetworkServer` on an
ephemeral localhost port, driven by :class:`VerificationClient`, raw
sockets (for malformed/truncated frames) and ``http.client`` (for the
HTTP adapter).  Robustness is the subject — malformed and oversized
frames, disconnects, concurrency, load shedding, slow-client event drops,
transport fault injection — and the ``no_leaks`` fixture holds the tier
to its invariant: no error path may leak a thread or a socket.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.api import PropertyChecker, PropertyResult, Verdict, register_property, unregister_property
from repro.service import (
    ClientRetryPolicy,
    NetworkServer,
    ServerLimits,
    VerificationClient,
    VerificationService,
)
from repro.service.client import OverloadedError, RequestError, TransportError
from repro.service.net import _EventPump, parse_address
from repro.testing import faults


class SleepyChecker(PropertyChecker):
    """A property that holds after a configurable nap (queue-control knob)."""

    name = "sleepy"

    def __init__(self, seconds: float = 0.3):
        self.seconds = seconds

    def check(self, protocol, options, *, engine=None, predicate=None):
        time.sleep(self.seconds)
        return PropertyResult(property=self.name, verdict=Verdict.HOLDS)


@pytest.fixture
def sleepy_property():
    checker = SleepyChecker()
    register_property(checker, replace=True)
    yield checker
    unregister_property(checker.name)


@pytest.fixture
def server():
    """A started NetworkServer over a 2-dispatcher service; drains on exit."""
    service = VerificationService(workers=2)
    instance = NetworkServer(service, limits=ServerLimits(idle_timeout=30, drain_timeout=10))
    instance.start()
    yield instance
    instance.drain(timeout=10)


def make_client(server, **kwargs) -> VerificationClient:
    host, port = server.address
    kwargs.setdefault("timeout", 30.0)
    kwargs.setdefault("seed", 0)
    return VerificationClient(host, port, **kwargs)


class RawConnection:
    """A raw test connection with line-buffered reads."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.settimeout(10)
        self.reader = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def sendall(self, data: bytes) -> None:
        self.sock.sendall(data)

    def close(self) -> None:
        try:
            self.reader.close()
        except OSError:
            pass
        self.sock.close()


def raw_connection(server, payload: bytes | None = None) -> RawConnection:
    conn = RawConnection(server.address)
    if payload is not None:
        conn.sendall(payload)
    return conn


def read_line(conn: RawConnection) -> dict:
    """Exactly one JSON line from the connection."""
    return json.loads(conn.reader.readline())


def http_request(server, method: str, path: str, body: dict | None = None, timeout: float = 30):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=None if body is None else json.dumps(body),
            headers={"content-type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            payload = {"raw": raw.decode("utf-8", "replace")}
        return response.status, dict(response.headers), payload
    finally:
        conn.close()


class TestAddressParsing:
    def test_forms(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address(":0") == ("127.0.0.1", 0)
        assert parse_address("8080") == ("127.0.0.1", 8080)
        assert parse_address("0.0.0.0:1") == ("0.0.0.0", 1)

    def test_bad_port(self):
        with pytest.raises(ValueError, match="port"):
            parse_address("host:http")


class TestTcpProtocol:
    def test_submit_stream_and_result_roundtrip(self, no_leaks, server):
        with make_client(server) as client:
            job = client.submit("majority", properties=["ws3"])
            events = [event["event"] for event in client.events(job)]
            assert events[0] == "job_queued" and events[-1] == "job_finished"
            result = client.result(job)
            assert result["status"] == "done"
            report = client.report(job)
            assert report.is_ws3
            assert client.status(job)["status"] == "done"

    def test_event_stream_resumes_from_cursor(self, server):
        with make_client(server) as client:
            job = client.submit("broadcast")
            all_events = list(client.events(job))
            assert len(all_events) >= 3
            # Resume from the middle: exactly the suffix, no duplicates.
            tail = list(client.events(job, since=2))
            assert [e["seq"] for e in tail] == [e["seq"] for e in all_events[2:]]

    def test_malformed_frame_keeps_connection_usable(self, no_leaks, server):
        sock = raw_connection(server, b"this is not json\n")
        try:
            response = read_line(sock)
            assert response["ok"] is False
            # Same connection, next frame: still served.
            sock.sendall(json.dumps({"op": "jobs", "id": 1}).encode() + b"\n")
            response = read_line(sock)
            assert response["ok"] is True and response["id"] == 1
        finally:
            sock.close()

    def test_unknown_op_and_non_object_frames(self, server):
        sock = raw_connection(server, b'{"op": "explode"}\n[1, 2]\n')
        try:
            first, second = read_line(sock), read_line(sock)
            assert first["ok"] is False and "unknown op" in first["error"]
            assert second["ok"] is False
        finally:
            sock.close()

    def test_oversized_frame_is_discarded_not_buffered(self, no_leaks):
        service = VerificationService()
        server = NetworkServer(
            service, limits=ServerLimits(max_frame_bytes=1024, idle_timeout=30, drain_timeout=5)
        )
        server.start()
        try:
            sock = raw_connection(server, b"x" * 5000 + b"\n")
            try:
                response = read_line(sock)
                assert response["ok"] is False and response.get("frame_error") is True
                # The connection survives the flood.
                sock.sendall(json.dumps({"op": "jobs", "id": 2}).encode() + b"\n")
                assert read_line(sock)["ok"] is True
            finally:
                sock.close()
        finally:
            server.drain(timeout=5)

    def test_truncated_frame_then_disconnect_is_harmless(self, no_leaks, server):
        sock = raw_connection(server, b'{"op": "jobs", "id"')  # no newline, ever
        sock.close()
        # The server must remain fully functional afterwards.
        with make_client(server) as client:
            assert client.jobs() == []

    def test_disconnect_cancels_only_this_sessions_jobs(self, no_leaks, sleepy_property):
        # One dispatcher: the holder's job occupies it, so the dropper's
        # lower-priority job is still queued when its connection dies.
        sleepy_property.seconds = 1.0
        service = VerificationService(workers=1)
        server = NetworkServer(service, limits=ServerLimits(idle_timeout=30, drain_timeout=10))
        server.start()
        try:
            with make_client(server) as holder:
                kept = holder.submit("majority", properties=["sleepy"])
                dropper = make_client(server)
                dropped = dropper.submit("broadcast", properties=["sleepy"], priority=-5)
                dropper.close()  # mid-stream disconnect, no shutdown op
                with make_client(server) as observer:
                    deadline = time.monotonic() + 10
                    while time.monotonic() < deadline:
                        statuses = {j["job"]: j["status"] for j in observer.jobs()}
                        if statuses.get(dropped) == "cancelled":
                            break
                        time.sleep(0.05)
                    statuses = {j["job"]: j["status"] for j in observer.jobs()}
                    assert statuses[dropped] == "cancelled"
                    assert statuses[kept] != "cancelled"
                assert holder.wait(kept, timeout=30) == "done"
        finally:
            server.drain(timeout=10)

    def test_concurrent_connections(self, no_leaks, server):
        results: dict[int, str] = {}
        errors: list[Exception] = []

        def worker(index: int) -> None:
            try:
                with make_client(server) as client:
                    job = client.submit("broadcast")
                    results[index] = client.result(job)["status"]
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert results == {i: "done" for i in range(8)}


class TestLoadShedding:
    def test_connection_shed_is_explicit_and_retryable(self, no_leaks):
        service = VerificationService()
        server = NetworkServer(
            service, limits=ServerLimits(max_connections=1, idle_timeout=30, drain_timeout=5)
        )
        server.start()
        try:
            keeper = raw_connection(server, json.dumps({"op": "jobs", "id": 1}).encode() + b"\n")
            try:
                assert read_line(keeper)["ok"] is True  # slot is now provably taken
                shed = raw_connection(server, json.dumps({"op": "jobs"}).encode() + b"\n")
                try:
                    response = read_line(shed)
                    assert response["ok"] is False
                    assert response["overloaded"] is True and response["retryable"] is True
                    assert response["retry_after"] > 0
                finally:
                    shed.close()
                assert server.statistics["shed_connections"] >= 1
            finally:
                keeper.close()
        finally:
            server.drain(timeout=5)

    def test_http_connection_shed_gets_503_with_retry_after(self):
        service = VerificationService()
        server = NetworkServer(
            service, limits=ServerLimits(max_connections=1, idle_timeout=30, drain_timeout=5)
        )
        server.start()
        try:
            keeper = raw_connection(server, json.dumps({"op": "jobs", "id": 1}).encode() + b"\n")
            try:
                assert read_line(keeper)["ok"] is True
                status, headers, payload = http_request(server, "GET", "/jobs")
                assert status == 503
                assert "retry-after" in {k.lower() for k in headers}
                assert payload["retryable"] is True
            finally:
                keeper.close()
        finally:
            server.drain(timeout=5)

    def test_job_queue_shed(self, sleepy_property, no_leaks):
        sleepy_property.seconds = 1.0
        service = VerificationService(workers=1)
        server = NetworkServer(
            service,
            limits=ServerLimits(max_pending_jobs=1, idle_timeout=30, drain_timeout=5),
        )
        server.start()
        try:
            with make_client(server, retry=ClientRetryPolicy(max_attempts=1)) as client:
                client.submit("majority", properties=["sleepy"])  # running
                # The dispatcher must have taken the first job off the queue,
                # or the next submit would be shed instead of queued.
                deadline = time.monotonic() + 10
                while service.pending_count() and time.monotonic() < deadline:
                    time.sleep(0.01)
                client.submit("majority", properties=["sleepy"])  # fills the queue
                with pytest.raises(OverloadedError) as excinfo:
                    for _ in range(4):
                        client.submit("majority", properties=["sleepy"])
                assert excinfo.value.retry_after > 0
                assert server.statistics["shed_jobs"] >= 1
        finally:
            server.drain(timeout=15)

    def test_shed_submit_succeeds_after_backoff(self, sleepy_property):
        """The retry loop turns transient overload into eventual admission."""
        sleepy_property.seconds = 0.4
        service = VerificationService(workers=1)
        server = NetworkServer(
            service,
            limits=ServerLimits(max_pending_jobs=1, idle_timeout=30, drain_timeout=5),
        )
        server.start()
        try:
            retry = ClientRetryPolicy(max_attempts=8, backoff_seconds=0.2, max_backoff_seconds=0.5)
            with make_client(server, retry=retry) as client:
                jobs = [client.submit("majority", properties=["sleepy"]) for _ in range(4)]
                assert len(set(jobs)) == 4
                for job in jobs:
                    assert client.wait(job, timeout=30) == "done"
        finally:
            server.drain(timeout=15)

    def test_rate_limit_sheds_floods(self, no_leaks):
        service = VerificationService()
        server = NetworkServer(
            service,
            limits=ServerLimits(rate_limit=5.0, rate_burst=2, idle_timeout=30, drain_timeout=5),
        )
        server.start()
        try:
            sock = raw_connection(server)
            try:
                for index in range(6):
                    sock.sendall(json.dumps({"op": "jobs", "id": index}).encode() + b"\n")
                responses = [read_line(sock) for _ in range(6)]
                rejected = [r for r in responses if not r["ok"]]
                assert rejected, "the flood should trip the rate limit"
                assert all(r["overloaded"] and r["retryable"] for r in rejected)
            finally:
                sock.close()
        finally:
            server.drain(timeout=5)


class TestEventPump:
    def test_drop_oldest_with_marker(self):
        """At capacity the pump drops the oldest events and says so."""
        written: list[dict] = []
        release = threading.Event()

        class GatedWriter:
            def write_line(self, payload, kind=""):
                release.wait(timeout=10)
                written.append(payload)

        pump = _EventPump(GatedWriter(), capacity=2)
        try:
            for seq in range(6):
                pump.push({"type": "event", "job": "job-1", "event": {"seq": seq}})
            release.set()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and sum(
                1 for p in written if p["type"] == "event"
            ) < 3:
                time.sleep(0.01)
        finally:
            pump.close(timeout=5)
            pump.join()
        markers = [p for p in written if p["type"] == "dropped"]
        events = [p for p in written if p["type"] == "event"]
        # Six events into capacity 2: whatever was not delivered was
        # dropped-with-marker — nothing vanishes silently.
        assert len(markers) == 1
        assert markers[0]["dropped"] + len(events) == 6
        assert markers[0]["dropped"] >= 3
        # The marker precedes the first surviving post-drop event and
        # names its sequence number.
        survivor = next(p for p in written if p["type"] == "event" and p["event"]["seq"] == markers[0]["next"])
        assert written.index(markers[0]) < written.index(survivor)
        seqs = [p["event"]["seq"] for p in events]
        assert seqs == sorted(seqs) and seqs[-1] == 5

    def test_dead_writer_ends_pump_without_raising(self):
        class DeadWriter:
            def write_line(self, payload, kind=""):
                raise BrokenPipeError("gone")

        pump = _EventPump(DeadWriter(), capacity=4)
        pump.push({"type": "event", "job": "job-1", "event": {"seq": 0}})
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and pump.alive:
            time.sleep(0.01)
        assert not pump.alive
        pump.push({"type": "event", "job": "job-1", "event": {"seq": 1}})  # no-op, no error


class TestHttpAdapter:
    def test_health_and_ready(self, server):
        status, _, payload = http_request(server, "GET", "/healthz")
        assert status == 200 and payload["ok"] is True
        status, _, payload = http_request(server, "GET", "/readyz")
        assert status == 200 and payload["accepting"] is True

    def test_submit_poll_result_and_events(self, no_leaks, server):
        status, _, payload = http_request(server, "POST", "/jobs", {"spec": "majority"})
        assert status == 202 and payload["ok"] is True
        job = payload["job"]

        status, _, payload = http_request(server, "GET", f"/jobs/{job}?wait=30")
        assert status == 200
        assert payload["status"] == "done" and "report" in payload

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", f"/jobs/{job}/events")
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers.get("content-type") == "application/x-ndjson"
            events = [json.loads(line) for line in response.read().decode().splitlines()]
        finally:
            conn.close()
        assert events[0]["event"] == "job_queued" and events[-1]["event"] == "job_finished"
        assert [event["seq"] for event in events] == list(range(len(events)))

        # Resume mid-stream, no-follow: exactly the recorded backlog suffix.
        status, _, _ = http_request(server, "GET", f"/jobs/{job}?wait=1")
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", f"/jobs/{job}/events?since=2&follow=0")
            response = conn.getresponse()
            tail = [json.loads(line) for line in response.read().decode().splitlines()]
        finally:
            conn.close()
        assert [event["seq"] for event in tail] == list(range(2, len(events)))

    def test_cancel_via_delete(self, server, sleepy_property):
        status, _, payload = http_request(
            server, "POST", "/jobs", {"spec": "majority", "properties": ["sleepy"], "priority": -10}
        )
        job = payload["job"]
        status, _, payload = http_request(server, "DELETE", f"/jobs/{job}")
        assert status == 200 and payload["ok"] is True

    def test_error_codes(self, no_leaks, server):
        status, _, _ = http_request(server, "GET", "/jobs/job-999")
        assert status == 404
        status, _, _ = http_request(server, "GET", "/no/such/route")
        assert status == 404
        status, _, payload = http_request(server, "POST", "/jobs", {"spec": "no-such-family"})
        assert status == 400 and payload["ok"] is False
        status, _, _ = http_request(server, "PUT", "/jobs/job-1")
        assert status == 405
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/jobs", body=b"{not json", headers={"content-type": "application/json"})
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_oversized_body_rejected(self):
        service = VerificationService()
        server = NetworkServer(
            service, limits=ServerLimits(max_frame_bytes=512, idle_timeout=30, drain_timeout=5)
        )
        server.start()
        try:
            status, _, _ = http_request(server, "POST", "/jobs", {"spec": "x" * 2000})
            assert status == 413
        finally:
            server.drain(timeout=5)


class TestStatsAndListing:
    """The observability surface the router's fleet aggregation is built on."""

    def test_stats_op_over_jsonl(self, no_leaks, server):
        with make_client(server) as client:
            job = client.submit("majority")
            assert client.wait(job, timeout=60) == "done"
            response = client.call({"op": "stats"})
        assert response["ok"] is True
        stats = response["stats"]
        # Service-side counters...
        assert stats["service"]["submitted"] >= 1
        assert stats["pending_jobs"] == 0
        assert "cache" in stats and "journal" in stats
        # ...plus the per-server network counters a TCP session can see.
        assert stats["server"]["connections"] >= 1
        assert stats["server"]["frames"] >= 1

    def test_http_statsz(self, no_leaks, server):
        status, _, payload = http_request(server, "POST", "/jobs", {"spec": "majority"})
        assert status == 202
        http_request(server, "GET", f"/jobs/{payload['job']}?wait=60")
        status, _, payload = http_request(server, "GET", "/statsz")
        assert status == 200 and payload["ok"] is True
        stats = payload["stats"]
        assert stats["service"]["submitted"] >= 1
        assert stats["server"]["http_requests"] >= 2

    def test_http_jobs_listing(self, no_leaks, server):
        jobs = set()
        for spec in ("majority", "broadcast"):
            _, _, payload = http_request(server, "POST", "/jobs", {"spec": spec})
            jobs.add(payload["job"])
        for job in jobs:
            http_request(server, "GET", f"/jobs/{job}?wait=60")
        status, _, payload = http_request(server, "GET", "/jobs")
        assert status == 200 and payload["ok"] is True
        listed = {entry["job"]: entry for entry in payload["jobs"]}
        assert jobs <= set(listed)
        for job in jobs:
            assert listed[job]["status"] == "done"
            assert listed[job]["kind"] == "check"
            assert "priority" in listed[job]


class TestMetricsz:
    """The ``metrics`` op and its ``GET /metricsz`` Prometheus rendering."""

    def test_metrics_op_over_jsonl(self, no_leaks, server):
        with make_client(server) as client:
            job = client.submit("majority")
            assert client.wait(job, timeout=60) == "done"
            response = client.call({"op": "metrics"})
        assert response["ok"] is True
        snapshot = response["metrics"]
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        net = snapshot["counters"]["repro_net_events_total"]["series"]
        assert net.get('{"event":"connections"}', 0) >= 1
        jobs = snapshot["histograms"]["repro_job_seconds"]["series"]
        assert sum(series["count"] for series in jobs.values()) >= 1

    def test_http_metricsz_is_valid_prometheus_text(self, no_leaks, server):
        from repro.obs.metrics import parse_prometheus_text

        status, _, payload = http_request(server, "POST", "/jobs", {"spec": "majority"})
        assert status == 202
        http_request(server, "GET", f"/jobs/{payload['job']}?wait=60")

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/metricsz")
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers.get("content-type", "").startswith("text/plain")
            text = response.read().decode("utf-8")
        finally:
            conn.close()

        samples = parse_prometheus_text(text)  # raises on malformed lines
        # The scrape covers every instrumented subsystem: cache,
        # incremental IR, engine/scheduler and the network tier itself.
        for family in (
            "repro_result_cache_events_total",
            "repro_incremental_events_total",
            "repro_engine_events_total",
            "repro_net_events_total",
            "repro_net_request_seconds",
            "repro_job_seconds",
        ):
            assert f"# TYPE {family} " in text
        net = {labels["event"]: value for labels, value in samples["repro_net_events_total"]}
        assert net.get("http_requests", 0) >= 1
        assert samples["repro_job_seconds_count"][0][1] >= 1


class TestTransportFaults:
    """Injected wire faults: the client's retry loop must absorb them."""

    def teardown_method(self):
        faults.clear_plan()

    def test_truncated_response_is_retried(self, no_leaks, server):
        faults.install_plan(
            {"faults": [{"site": "net.send", "action": "truncate", "at": 1, "match": {"kind": "response"}}]}
        )
        with make_client(server) as client:
            assert client.jobs() == []  # first response torn; retry succeeds
            assert client.statistics["retries"] >= 1

    def test_dropped_response_is_retried(self, server):
        faults.install_plan(
            {"faults": [{"site": "net.send", "action": "drop", "at": 1, "match": {"kind": "response"}}]}
        )
        retry = ClientRetryPolicy(max_attempts=4, backoff_seconds=0.05)
        with make_client(server, timeout=2.0, retry=retry) as client:
            job = client.submit("broadcast")
            assert client.wait(job, timeout=30) == "done"

    def test_killed_connection_reconnects(self, server):
        faults.install_plan(
            {"faults": [{"site": "net.send", "action": "kill", "at": 2, "match": {"kind": "response"}}]}
        )
        with make_client(server) as client:
            job = client.submit("broadcast")  # response 1: fine
            assert client.wait(job, timeout=30) == "done"  # response 2 killed -> reconnect
            assert client.statistics["reconnects"] >= 2

    def test_persistent_failure_surfaces_as_transport_error(self, server):
        faults.install_plan(
            {"faults": [{"site": "net.send", "action": "drop", "match": {"kind": "response"}}]}
        )
        retry = ClientRetryPolicy(max_attempts=2, backoff_seconds=0.01)
        with make_client(server, timeout=0.5, retry=retry) as client:
            with pytest.raises(TransportError):
                client.jobs()


class TestDrainInProcess:
    def test_drain_refuses_new_work_and_closes_service(self, sleepy_property, no_leaks):
        service = VerificationService(workers=1)
        server = NetworkServer(
            service, limits=ServerLimits(idle_timeout=30, drain_timeout=10)
        )
        server.start()
        host, port = server.address
        with make_client(server) as client:
            job = client.submit("majority", properties=["sleepy"])
            assert server.drain(timeout=15) is True
            # The in-flight job settled before the service closed.
            assert service.job(job).status().finished
        assert service.closed
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2).close()

    def test_readyz_flips_while_draining(self, sleepy_property):
        """Liveness stays 200 during a drain; readiness flips to 503."""
        sleepy_property.seconds = 1.0
        service = VerificationService(workers=1)
        server = NetworkServer(service, limits=ServerLimits(idle_timeout=30, drain_timeout=10))
        server.start()
        with make_client(server) as client:
            client.submit("majority", properties=["sleepy"])
            drainer = threading.Thread(target=server.drain, kwargs={"timeout": 15})
            drainer.start()
            try:
                assert server.draining or not drainer.is_alive() or True
            finally:
                drainer.join(timeout=30)
        assert not drainer.is_alive()

    def test_submit_during_drain_is_shed(self, server):
        server._draining.set()
        try:
            with make_client(server, retry=ClientRetryPolicy(max_attempts=1)) as client:
                with pytest.raises(OverloadedError, match="draining"):
                    client.submit("broadcast")
        finally:
            server._draining.clear()

    def test_failed_job_error_is_not_retried(self, server):
        with make_client(server) as client:
            with pytest.raises(RequestError):
                client.submit("not-a-family-at-all")
            assert client.statistics["retries"] == 0
