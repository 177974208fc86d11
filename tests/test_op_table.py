"""The serve protocol's op table and its one dispatcher.

Every transport answers from :data:`repro.service.serve.OPS`: the stdio
session, the TCP line protocol, the HTTP adapter and (see
``tests/test_router.py``) the router.  These tests hold the table to that:
every op is answered, every HTTP route names a table op, error responses
are counted per op without letting outside input grow the label set, and
the daemon and the router validate a submit with the same parser.
"""

from __future__ import annotations

import http.client
import io
import json

import pytest

from repro.obs.metrics import REGISTRY
from repro.service import NetworkServer, ServerLimits, ServeSession, VerificationClient, VerificationService
from repro.service.net import _HTTP_ROUTES
from repro.service.router import JobRouter
from repro.service.serve import OPS


def run_session(requests, **service_kwargs):
    """Drive one stdio ServeSession in-process; returns its responses by id."""
    stdin = io.StringIO("\n".join(json.dumps(request) for request in requests) + "\n")
    stdout = io.StringIO()
    ServeSession(VerificationService(**service_kwargs), stdin, stdout).run()
    lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
    return {line["id"]: line for line in lines if line["type"] == "response" and "id" in line}


def every_op(job: str) -> dict:
    """One valid request per table op, in an order that leaves each answerable."""
    requests = {
        "submit": {"op": "submit", "spec": "broadcast"},
        "status": {"op": "status", "job": job},
        "wait": {"op": "wait", "job": job, "timeout": 60},
        "events": {"op": "events", "job": job, "since": 0},
        "result": {"op": "result", "job": job, "timeout": 60},
        "cancel": {"op": "cancel", "job": job},
        "jobs": {"op": "jobs"},
        "stats": {"op": "stats"},
        "metrics": {"op": "metrics"},
        "shutdown": {"op": "shutdown"},
    }
    assert set(requests) == set(OPS), "a table op has no request here"
    return requests


@pytest.fixture
def server():
    service = VerificationService(workers=1)
    instance = NetworkServer(service, limits=ServerLimits(idle_timeout=30, drain_timeout=10))
    instance.start()
    yield instance
    instance.drain(timeout=10)


def http_get(server, path: str):
    conn = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_every_op_is_answered_over_tcp(no_leaks, server):
    with VerificationClient(*server.address, timeout=60.0, seed=0) as client:
        job = client.submit("broadcast")
        for name, request in every_op(job).items():
            response = client.call(request)
            assert response["ok"] is True, (name, response)
            assert response["op"] == name


def test_every_http_route_names_a_table_op():
    assert {op for _, _, op, _ in _HTTP_ROUTES} <= set(OPS)


def test_error_responses_are_counted_per_op():
    errors = REGISTRY.counter("repro_net_request_errors_total")
    unknown, status = errors.value(op="unknown"), errors.value(op="status")
    responses = run_session(
        [
            {"op": "explode", "id": 1},
            {"op": "status", "job": "job-404", "id": 2},
            {"op": "status", "id": 3},
            {"op": "shutdown", "id": 4},
        ]
    )
    assert "unknown op" in responses[1]["error"]
    assert not responses[2]["ok"] and not responses[3]["ok"]
    assert errors.value(op="unknown") == unknown + 1
    assert errors.value(op="status") == status + 2
    # Outside input never becomes a label value.
    assert errors.value(op="explode") == 0


def test_negative_since_is_refused_over_the_line_protocol():
    responses = run_session(
        [
            {"op": "submit", "spec": "broadcast", "properties": ["layered_termination"], "id": 1},
            {"op": "wait", "job": "job-1", "id": 2},
            {"op": "events", "job": "job-1", "since": 0, "id": 3},
            {"op": "events", "job": "job-1", "since": -2, "id": 4},
            {"op": "shutdown", "id": 5},
        ]
    )
    assert responses[3]["ok"] and responses[3]["next"] == len(responses[3]["events"])
    assert responses[4]["ok"] is False
    assert "since" in responses[4]["error"]


def test_negative_since_is_refused_over_http(no_leaks, server):
    with VerificationClient(*server.address, timeout=60.0, seed=0) as client:
        job = client.submit("broadcast")
        assert client.wait(job, timeout=60) == "done"
    status, body = http_get(server, f"/jobs/{job}/events?since=-2&follow=0")
    assert status == 400
    payload = json.loads(body)
    assert payload["ok"] is False and "since" in payload["error"]
    status, _ = http_get(server, f"/jobs/{job}/events?since=0&follow=0")
    assert status == 200


@pytest.mark.parametrize(
    "bad",
    [
        {},
        {"specs": []},
        {"specs": "majority"},
        {"specs": {"majority": 1}},
        {"protocol": {"states": "nope"}},
        {"spec": "no-such-family"},
    ],
)
def test_daemon_and_router_reject_a_bad_submit_alike(bad):
    router = JobRouter.__new__(JobRouter)  # hashing needs no fleet
    with pytest.raises(ValueError) as routed:
        router.routing_hash(bad)
    response = run_session([{"op": "submit", "id": 1, **bad}])[1]
    assert response["ok"] is False
    assert response["error"] == str(routed.value)
