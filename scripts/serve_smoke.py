#!/usr/bin/env python3
"""Smoke and load tests of the ``repro-verify serve`` daemon, end to end.

Four scenarios, selectable by flag (the stdio smoke is the default so the
existing CI step keeps its meaning):

* **stdio smoke** (default) — pipes a submit+events+cancel+result script
  through a real ``serve`` subprocess and asserts the acceptance scenario
  of the service PR: two jobs submitted, events streamed for both, one
  cancelled, the other's report received losslessly.
* ``--network`` — spawns ``serve --tcp`` and exercises both wire protocols
  against the same listener: the JSON-lines protocol through
  :class:`~repro.service.client.VerificationClient` (submit, resumable
  events, result) and the HTTP adapter (healthz/readyz, POST /jobs, polled
  status, chunked NDJSON events, and a ``/metricsz`` scrape validated
  through the Prometheus-text parser).
* ``--load N --jobs M`` — the load harness: N concurrent TCP clients each
  running M submit→wait→result jobs against one daemon; reports throughput
  and p50/p95/p99 latency, then scrapes ``/metricsz`` and asserts the
  request/job latency histograms actually populated under load.
* ``--overload`` — floods a deliberately tiny daemon (2 connections,
  2 pending jobs) far past its limits and asserts the robustness contract:
  every request either completes or is *explicitly shed* with a retryable
  ``overloaded`` answer — no hangs, no crash — and the daemon still serves
  normally afterwards.
* ``--router`` — spawns ``repro-verify route --replicas 2`` (the sharded
  routing tier) and asserts its acceptance contract: deterministic
  sharding (the same protocol always lands on the same shard, proven by
  that shard's cache hits), scatter-gathered ``jobs``/``stats``, and a
  fleet-wide SIGTERM drain that exits 0.  Combine with ``--load N`` to run
  the load harness through the router instead of a single daemon.

Exits non-zero (with a diagnostic) on any violation::

    PYTHONPATH=src python scripts/serve_smoke.py
    PYTHONPATH=src python scripts/serve_smoke.py --network
    PYTHONPATH=src python scripts/serve_smoke.py --load 4 --jobs 2
    PYTHONPATH=src python scripts/serve_smoke.py --overload
    PYTHONPATH=src python scripts/serve_smoke.py --router --load 4 --jobs 2
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

REQUESTS = [
    {"op": "submit", "spec": "majority", "stream": True, "id": 1},
    {"op": "submit", "spec": "broadcast", "stream": True, "priority": -1, "id": 2},
    {"op": "cancel", "job": "job-2", "id": 3},
    {"op": "result", "job": "job-1", "wait": True, "id": 4},
    {"op": "wait", "job": "job-2", "id": 5},
    {"op": "shutdown", "id": 6},
]


def serve_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def spawn_tcp_daemon(*extra_args: str) -> tuple[subprocess.Popen, str, int]:
    """Start ``serve --tcp 127.0.0.1:0`` and return (proc, host, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--tcp", "127.0.0.1:0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=serve_env(),
    )
    line = proc.stdout.readline()
    if not line:
        proc.kill()
        raise RuntimeError(f"daemon died before announcing a port: {proc.stderr.read()}")
    announced = json.loads(line)
    if announced.get("type") != "listening":
        proc.kill()
        raise RuntimeError(f"unexpected announcement: {announced}")
    return proc, announced["host"], announced["port"]


def spawn_router(
    state_dir: str, *extra_args: str, replicas: int = 2
) -> tuple[subprocess.Popen, str, int]:
    """Start ``route --replicas N --tcp 127.0.0.1:0`` and return (proc, host, port)."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "route",
            "--replicas",
            str(replicas),
            "--tcp",
            "127.0.0.1:0",
            "--state-dir",
            state_dir,
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=serve_env(),
    )
    line = proc.stdout.readline()
    if not line:
        proc.kill()
        raise RuntimeError(f"router died before announcing a port: {proc.stderr.read()}")
    announced = json.loads(line)
    if announced.get("type") != "listening":
        proc.kill()
        raise RuntimeError(f"unexpected announcement: {announced}")
    return proc, announced["host"], announced["port"]


def terminate(proc: subprocess.Popen) -> int:
    """SIGTERM the daemon and return its (expected-zero) exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)
        return -1


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty, unsorted sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


# ----------------------------------------------------------------------
# The load harness (also run through the router by ``--router --load N``)
# ----------------------------------------------------------------------


def run_load(
    host: str,
    port: int,
    *,
    clients: int = 4,
    jobs: int = 3,
    spec: str = "majority",
    timeout: float = 300.0,
) -> dict:
    """N concurrent TCP clients × M submit→wait→result jobs each.

    Returns a summary dictionary: job counts (completed / shed / failed),
    wall-clock throughput, p50/p95/p99/max per-job latency, and the summed
    client retry counters.  Shed jobs (explicit ``overloaded`` answers that
    outlasted the client's retries) are *not* failures — the robustness
    contract is completed-or-shed, never hung.
    """
    from repro.service.client import OverloadedError, VerificationClient

    latencies: list[float] = []
    shed = [0]
    failures: list[str] = []
    retries = [0]
    lock = threading.Lock()

    def worker(index: int) -> None:
        try:
            with VerificationClient(host, port, timeout=timeout, seed=index) as client:
                for _ in range(jobs):
                    start = time.perf_counter()
                    try:
                        job = client.submit(spec)
                        status = client.wait(job, timeout=timeout)
                        payload = client.result(job)
                    except OverloadedError:
                        with lock:
                            shed[0] += 1
                        continue
                    elapsed = time.perf_counter() - start
                    with lock:
                        if status != "done" or "report" not in payload:
                            failures.append(f"client {index}: job {job} ended {status!r}")
                        else:
                            latencies.append(elapsed)
                with lock:
                    retries[0] += client.statistics["retries"]
        except Exception as error:  # noqa: BLE001 - harness boundary
            with lock:
                failures.append(f"client {index}: {type(error).__name__}: {error}")

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(index,), name=f"load-client-{index}")
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout + 60)
    elapsed = time.perf_counter() - started

    summary = {
        "clients": clients,
        "jobs_per_client": jobs,
        "jobs_total": clients * jobs,
        "completed": len(latencies),
        "shed": shed[0],
        "failed": len(failures),
        "failures": failures[:5],
        "client_retries": retries[0],
        "elapsed_seconds": round(elapsed, 4),
        "throughput_jobs_per_second": round(len(latencies) / elapsed, 4) if elapsed > 0 else None,
    }
    if latencies:
        summary["latency_seconds"] = {
            "p50": round(percentile(latencies, 0.50), 4),
            "p95": round(percentile(latencies, 0.95), 4),
            "p99": round(percentile(latencies, 0.99), 4),
            "max": round(max(latencies), 4),
        }
    return summary


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def scenario_stdio() -> list[str]:
    script = "\n".join(json.dumps(request) for request in REQUESTS) + "\n"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve"],
        input=script,
        capture_output=True,
        text=True,
        env=serve_env(),
        timeout=600,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return [f"serve exited with {proc.returncode}"]

    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    responses = {line["id"]: line for line in lines if line["type"] == "response" and "id" in line}
    events = [line for line in lines if line["type"] == "event"]

    failures = []
    for request_id in (1, 2, 3, 4, 5, 6):
        if not responses.get(request_id, {}).get("ok"):
            failures.append(f"request {request_id} did not succeed: {responses.get(request_id)}")
    streamed_jobs = {line["job"] for line in events}
    if not {"job-1", "job-2"} <= streamed_jobs:
        failures.append(f"expected streamed events for both jobs, saw {sorted(streamed_jobs)}")

    report_payload = responses.get(4, {}).get("report")
    if report_payload is None:
        failures.append("no report for job-1")
    else:
        from repro.api.report import VerificationReport

        report = VerificationReport.from_dict(report_payload)
        if report.to_dict() != report_payload:
            failures.append("job-1 report is not a lossless round trip")
        if not report.is_ws3:
            failures.append("majority unexpectedly not WS3")
        if not report.statistics.get("events"):
            failures.append("report statistics carry no event trail")

    status_job2 = responses.get(5, {}).get("status")
    if status_job2 not in ("cancelled", "done"):
        failures.append(f"job-2 ended in unexpected status {status_job2!r}")
    if not failures:
        print(
            f"stdio smoke OK: {len(lines)} output lines, {len(events)} streamed events, "
            f"job-2 {status_job2}"
        )
    return failures


def _http(host: str, port: int, method: str, path: str, body: bytes = b"") -> tuple[int, dict, bytes]:
    """One HTTP/1.1 exchange; returns (status, headers, body)."""
    with socket.create_connection((host, port), timeout=120) as sock:
        headers = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n"
        if body:
            headers += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        sock.sendall(headers.encode() + b"\r\n" + body)
        raw = bytearray()
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw.extend(chunk)
    head, _, payload = bytes(raw).partition(b"\r\n\r\n")
    lines = head.decode("iso-8859-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    parsed = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        parsed[name.strip().lower()] = value.strip()
    if parsed.get("transfer-encoding") == "chunked":
        decoded = bytearray()
        rest = payload
        while rest:
            size_line, _, rest = rest.partition(b"\r\n")
            size = int(size_line, 16)
            if size == 0:
                break
            decoded.extend(rest[:size])
            rest = rest[size + 2 :]
        payload = bytes(decoded)
    return status, parsed, payload


def scrape_metricsz(host: str, port: int) -> tuple[dict, list[str]]:
    """GET /metricsz and validate it through the Prometheus-text parser.

    Returns ``(samples, failures)`` where samples is the parsed
    ``{metric_name: [(labels, value), ...]}`` mapping (empty on failure).
    """
    from repro.obs.metrics import parse_prometheus_text

    status, headers, body = _http(host, port, "GET", "/metricsz")
    if status != 200:
        return {}, [f"GET /metricsz returned {status}: {body[:200]!r}"]
    content_type = headers.get("content-type", "")
    if not content_type.startswith("text/plain"):
        return {}, [f"/metricsz content-type {content_type!r} is not text/plain"]
    try:
        samples = parse_prometheus_text(body.decode("utf-8"))
    except ValueError as error:
        return {}, [f"/metricsz is not valid Prometheus text: {error}"]
    return samples, []


def scenario_network() -> list[str]:
    from repro.api.report import VerificationReport
    from repro.service.client import VerificationClient

    failures = []
    proc, host, port = spawn_tcp_daemon()
    try:
        # JSON-lines protocol through the resilient client.
        with VerificationClient(host, port, timeout=120) as client:
            job = client.submit("majority")
            events = list(client.events(job, poll_timeout=5.0))
            if not any(event.get("event") == "job_finished" for event in events):
                failures.append(f"TCP event stream for {job} carries no job_finished")
            payload = client.result(job)
            report = VerificationReport.from_dict(payload["report"])
            if not report.is_ws3:
                failures.append("TCP: majority unexpectedly not WS3")

        # HTTP adapter on the same listener.
        status, _, body = _http(host, port, "GET", "/healthz")
        if status != 200:
            failures.append(f"GET /healthz returned {status}")
        status, _, body = _http(host, port, "GET", "/readyz")
        if status != 200:
            failures.append(f"GET /readyz returned {status}")
        status, _, body = _http(host, port, "POST", "/jobs", json.dumps({"spec": "broadcast"}).encode())
        if status != 202:
            failures.append(f"POST /jobs returned {status}: {body[:200]!r}")
        else:
            http_job = json.loads(body)["job"]
            status, _, body = _http(host, port, "GET", f"/jobs/{http_job}?wait=120")
            if status != 200 or json.loads(body).get("status") != "done":
                failures.append(f"GET /jobs/{http_job} returned {status}: {body[:200]!r}")
            status, _, body = _http(host, port, "GET", f"/jobs/{http_job}/events?follow=0")
            ndjson = [json.loads(line) for line in body.decode().splitlines() if line]
            if status != 200 or not any(event.get("event") == "job_finished" for event in ndjson):
                failures.append(f"HTTP event stream for {http_job} carries no job_finished")

        # /metricsz on the same listener: valid Prometheus text covering the
        # daemon's counters and latency histograms.
        samples, metric_failures = scrape_metricsz(host, port)
        failures.extend(metric_failures)
        if samples:
            for family in ("repro_net_events_total", "repro_job_seconds_count"):
                if family not in samples:
                    failures.append(f"/metricsz carries no {family} samples")
            jobs_observed = sum(value for _, value in samples.get("repro_job_seconds_count", []))
            if jobs_observed < 2:
                failures.append(
                    f"repro_job_seconds observed {jobs_observed} jobs, expected the 2 just run"
                )
    finally:
        code = terminate(proc)
        if code != 0:
            failures.append(f"daemon exited {code} on SIGTERM")
    if not failures:
        print(
            "network smoke OK: JSON-lines and HTTP protocols served on one listener, "
            f"/metricsz parsed with {len(samples)} sample families"
        )
    return failures


def scenario_load(clients: int, jobs: int) -> list[str]:
    failures = []
    proc, host, port = spawn_tcp_daemon("--max-connections", str(max(8, clients + 2)))
    try:
        summary = run_load(host, port, clients=clients, jobs=jobs)
        # Under load the latency histograms must actually populate: every
        # request and every completed job leaves an observation behind.
        samples, metric_failures = scrape_metricsz(host, port)
        failures.extend(metric_failures)
        if samples:
            for family, floor in (
                ("repro_net_request_seconds_count", summary["completed"]),
                ("repro_job_seconds_count", summary["completed"]),
            ):
                observed = sum(value for _, value in samples.get(family, []))
                if observed < max(1, floor):
                    failures.append(
                        f"{family} observed {observed} under load, expected >= {max(1, floor)}"
                    )
    finally:
        code = terminate(proc)
    if summary["failed"]:
        failures.extend(summary["failures"])
    if summary["completed"] + summary["shed"] != summary["jobs_total"]:
        failures.append(
            f"{summary['jobs_total']} jobs in, {summary['completed']} completed + "
            f"{summary['shed']} shed out — some vanished"
        )
    if code != 0:
        failures.append(f"daemon exited {code} on SIGTERM after load")
    if not failures:
        latency = summary.get("latency_seconds", {})
        print(
            f"load OK: {summary['completed']}/{summary['jobs_total']} jobs from "
            f"{clients} clients at {summary['throughput_jobs_per_second']} jobs/s "
            f"(p50={latency.get('p50')}s p95={latency.get('p95')}s p99={latency.get('p99')}s, "
            f"{summary['shed']} shed, {summary['client_retries']} retries)"
        )
        print(json.dumps(summary, indent=2))
    return failures


def scenario_overload() -> list[str]:
    """Flood a tiny daemon: every request completes or is explicitly shed."""
    from repro.service.client import ClientRetryPolicy, OverloadedError, VerificationClient

    failures = []
    proc, host, port = spawn_tcp_daemon(
        "--max-connections", "2", "--max-pending-jobs", "2", "--drain-timeout", "20"
    )
    outcomes = {"completed": 0, "shed": 0}
    lock = threading.Lock()

    def flooder(index: int) -> None:
        # One quick retry round only: the point is to observe the shed
        # answer, not to wait out the overload.
        policy = ClientRetryPolicy(max_attempts=2, backoff_seconds=0.01, max_backoff_seconds=0.05)
        try:
            with VerificationClient(host, port, timeout=120, retry=policy, seed=index) as client:
                job = client.submit("majority")
                if client.wait(job, timeout=120) == "done":
                    with lock:
                        outcomes["completed"] += 1
                else:
                    with lock:
                        failures.append(f"flooder {index}: job {job} did not finish")
        except OverloadedError:
            with lock:
                outcomes["shed"] += 1
        except Exception as error:  # noqa: BLE001 - harness boundary
            with lock:
                failures.append(f"flooder {index}: {type(error).__name__}: {error}")

    try:
        threads = [
            threading.Thread(target=flooder, args=(index,), name=f"flooder-{index}")
            for index in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            if thread.is_alive():
                failures.append(f"{thread.name} hung — shed-not-stall violated")
        if outcomes["shed"] == 0:
            failures.append("12 clients against 2 connection slots and nothing was shed")
        if outcomes["completed"] == 0:
            failures.append("overloaded daemon completed nothing at all")

        # The daemon must still be healthy after the storm.
        with VerificationClient(host, port, timeout=120) as client:
            job = client.submit("majority")
            if client.wait(job, timeout=300) != "done":
                failures.append("post-overload submit did not complete")
    finally:
        code = terminate(proc)
        if code != 0:
            failures.append(f"daemon exited {code} on SIGTERM after overload")
    if not failures:
        print(
            f"overload OK: {outcomes['completed']} completed, {outcomes['shed']} shed "
            "explicitly, daemon healthy after the storm"
        )
    return failures


def scenario_router(load_clients: int | None, jobs: int) -> list[str]:
    """The sharded routing tier, end to end: deterministic sharding (proven
    via per-shard cache hits), scatter-gather, and a fleet-wide drain."""
    import tempfile

    from repro.service.client import VerificationClient

    failures = []
    summary = None
    with tempfile.TemporaryDirectory(prefix="repro-router-smoke-") as state_dir:
        proc, host, port = spawn_router(state_dir)
        try:
            with VerificationClient(host, port, timeout=300) as client:
                first = client.submit("majority")
                second = client.submit("broadcast")
                owner = first.split(":", 1)[0]
                for job in (first, second):
                    if ":" not in job:
                        failures.append(f"job id {job!r} is not shard-namespaced")
                    if client.wait(job, timeout=300) != "done":
                        failures.append(f"router job {job} did not finish")
                    elif "report" not in client.result(job):
                        failures.append(f"router job {job} returned no report")

                # Shard stability: the same protocol must land on the same
                # shard, where its first run is already cached.
                repeat = client.submit("majority")
                if repeat.split(":", 1)[0] != owner:
                    failures.append(
                        f"majority moved shards: {first} then {repeat} — sharding not deterministic"
                    )
                if client.wait(repeat, timeout=300) != "done":
                    failures.append(f"repeat job {repeat} did not finish")
                stats = client.call({"op": "stats"}).get("stats", {})
                shard_stats = stats.get("shards", {})
                hits = ((shard_stats.get(owner) or {}).get("cache") or {}).get("hits", 0)
                if hits < 1:
                    failures.append(
                        f"owning shard {owner} shows no cache hit for the repeat submit"
                    )
                if len(shard_stats) != 2:
                    failures.append(f"stats gathered {len(shard_stats)} shards, expected 2")

                listed = client.jobs()
                if len(listed) < 3:
                    failures.append(f"fleet-wide jobs listed only {len(listed)} jobs")

            # HTTP aggregates on the same listener.
            status, _, body = _http(host, port, "GET", "/readyz")
            if status != 200:
                failures.append(f"router GET /readyz returned {status}")
            status, _, body = _http(host, port, "GET", "/statsz")
            payload = json.loads(body) if status == 200 else {}
            if status != 200 or len(payload.get("stats", {}).get("shards", {})) != 2:
                failures.append(f"router GET /statsz returned {status}: {body[:200]!r}")

            # Fleet-wide /metricsz: shard-labelled series from every replica
            # plus the router's own, merged into one valid exposition.
            samples, metric_failures = scrape_metricsz(host, port)
            failures.extend(metric_failures)
            if samples:
                shards = {
                    labels.get("shard")
                    for labels, _ in samples.get("repro_router_routed_jobs_total", [])
                }
                if len(shards) < 1:
                    failures.append("router /metricsz carries no shard-labelled routing counters")
                job_counts = [
                    labels.get("shard")
                    for labels, value in samples.get("repro_job_seconds_count", [])
                    if value > 0
                ]
                if not job_counts:
                    failures.append("router /metricsz shows no shard with completed jobs")

            if load_clients:
                summary = run_load(host, port, clients=load_clients, jobs=jobs)
                if summary["failed"]:
                    failures.extend(summary["failures"])
                if summary["completed"] + summary["shed"] != summary["jobs_total"]:
                    failures.append(
                        f"router load: {summary['jobs_total']} jobs in, "
                        f"{summary['completed']} completed + {summary['shed']} shed out"
                    )
        finally:
            code = terminate(proc)
            if code != 0:
                failures.append(f"router exited {code} on SIGTERM (fleet drain must exit 0)")
    if not failures:
        print("router smoke OK: 2 shards, deterministic sharding, fleet drained cleanly")
        if summary is not None:
            print(
                f"router load OK: {summary['completed']}/{summary['jobs_total']} jobs at "
                f"{summary['throughput_jobs_per_second']} jobs/s"
            )
            print(json.dumps(summary, indent=2))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--network", action="store_true", help="run the TCP+HTTP smoke")
    parser.add_argument("--load", type=int, metavar="N", help="run the load harness with N clients")
    parser.add_argument("--jobs", type=int, default=3, metavar="M", help="jobs per load client")
    parser.add_argument(
        "--overload", action="store_true", help="run the overload (shed-not-crash) scenario"
    )
    parser.add_argument(
        "--router",
        action="store_true",
        help="run the sharded-router smoke (with --load N: route the load harness through it)",
    )
    args = parser.parse_args(argv)

    failures = []
    ran_any = False
    if args.network:
        ran_any = True
        failures.extend(scenario_network())
    if args.router:
        ran_any = True
        failures.extend(scenario_router(args.load, args.jobs))
    if args.load is not None and not args.router:
        ran_any = True
        failures.extend(scenario_load(args.load, args.jobs))
    if args.overload:
        ran_any = True
        failures.extend(scenario_overload())
    if not ran_any:
        failures.extend(scenario_stdio())

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
