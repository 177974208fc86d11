"""serve-mix: closed-loop TCP clients against a ``repro-verify serve --tcp`` daemon.

Each pass starts a fresh daemon (default ``--workers 1``) on a fresh result
cache and job journal, warms it with one ``broadcast`` check (the end of
set-up), primes the hot set untimed, and then lets ``CLIENTS`` threads, one
connection each, submit the pass's jobs: a client sends its next job only
after the verdict of its previous one has arrived and been decoded.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import SERVE_HOT, build_protocol, inline_label, serve_jobs

CLIENTS = 2
#: A job without a verdict after this long counts as failed.
JOB_LIMIT_S = 60.0
#: A daemon that has not announced its port after this long is killed.
START_LIMIT_S = 60.0


class Daemon:
    """One ``serve --tcp`` subprocess on its own cache and journal."""

    def __init__(self, root: Path, state_dir: Path):
        self.state_dir = state_dir
        shutil.rmtree(state_dir, ignore_errors=True)
        state_dir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--tcp", "127.0.0.1:0",
                "--cache-dir", str(state_dir / "cache"), "--journal-dir", str(state_dir / "journal"),
            ],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=root,
        )
        watchdog = threading.Timer(START_LIMIT_S, self.process.kill)
        watchdog.start()
        try:
            for line in self.process.stdout:
                announcement = json.loads(line)
                if announcement.get("type") == "listening":
                    self.host, self.port = announcement["host"], announcement["port"]
                    break
            else:
                raise RuntimeError(f"the daemon exited before listening (code {self.process.wait()})")
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        finally:
            watchdog.cancel()

    def client(self):
        from repro.service.client import VerificationClient

        return VerificationClient(self.host, self.port, timeout=JOB_LIMIT_S)

    def peak_rss_kb(self) -> int:
        """The daemon's resident-set high-water mark so far (Linux ``VmHWM``)."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        raise RuntimeError("no VmHWM line in the daemon's /proc status")

    def close(self) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)


class JobRunner:
    """Submits one job and waits for its decoded verdict."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.protocols: dict[str, object] = {}
        self._inline: dict[str, dict] = {}

    def protocol(self, label: str):
        if label not in self.protocols:
            self.protocols[label] = build_protocol(label)
            if inline_label(label):
                from repro.io.serialization import protocol_to_dict

                self._inline[label] = protocol_to_dict(self.protocols[label])
        return self.protocols[label]

    def run(self, client, label: str) -> dict:
        from repro.api.report import VerificationReport
        from repro.service.client import ClientError

        record: dict = {"job": [label, "ws3", None]}
        self.protocol(label)
        start = time.perf_counter()
        try:
            if inline_label(label):
                job_id = client.submit(protocol=self._inline[label])
            else:
                job_id = client.submit(label)
            submitted = time.perf_counter()
            response = client.result(job_id, wait=True, timeout=JOB_LIMIT_S)
            received = time.perf_counter()
            report = VerificationReport.from_dict(response["report"])
        except (ClientError, KeyError) as error:
            record["error"] = repr(error)
            return record
        done = time.perf_counter()
        record.update(job_id=job_id, latency_s=done - start, report=report)
        if self.trace:
            record.update(
                submit_s=submitted - start,
                result_s=received - submitted,
                decode_s=done - received,
                result_bytes=len(json.dumps(response)),
            )
        return record


def _stats(client) -> dict:
    return client.call({"op": "stats"})["stats"]


def daemon_setup(root: Path, work: Path) -> float:
    """Seconds from spawning a daemon to the verdict of its warm-up check."""
    daemon = Daemon(root, work / f"serve-setup-{os.getpid()}")
    try:
        with daemon.client() as client:
            client.result(client.submit("broadcast"), wait=True, timeout=JOB_LIMIT_S)
        return time.perf_counter() - daemon.spawned
    finally:
        daemon.close()


def run_pass(root: Path, work: Path, runner: JobRunner, seed: int, pass_index: int) -> dict:
    """One pass on a fresh daemon; returns set-up, wall time, job records and trace sums."""
    daemon = Daemon(root, work / f"serve-{os.getpid()}-{pass_index}")
    try:
        with daemon.client() as client:
            client.result(client.submit("broadcast"), wait=True, timeout=JOB_LIMIT_S)
            setup_s = time.perf_counter() - daemon.spawned
            for label in SERVE_HOT:
                runner.run(client, label)
            before = _stats(client)

        pending = [label for label, _, _ in serve_jobs(seed, pass_index)]
        for label in pending:
            runner.protocol(label)
        records: list[dict] = []
        lock = threading.Lock()

        def closed_loop():
            with daemon.client() as client:
                while True:
                    with lock:
                        if not pending:
                            return
                        label = pending.pop(0)
                    record = runner.run(client, label)
                    with lock:
                        records.append(record)

        threads = [threading.Thread(target=closed_loop) for _ in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        verify_s = time.perf_counter() - start

        raw: dict = {}
        if runner.trace:
            with daemon.client() as client:
                after = _stats(client)
                for record in records:
                    if "job_id" in record:
                        _add_service_times(client, record, raw)
            for key in ("submit_s", "result_s", "decode_s", "result_bytes"):
                prefix = "report" if key == "decode_s" else "wire"
                raw[f"{prefix}.{key}"] = sum(record.get(key, 0) for record in records)
            for counter in ("hits", "misses", "stores"):
                raw[f"cache.{counter}"] = after["cache"][counter] - before["cache"][counter]
            raw["journal.records"] = after["journal"]["appended"] - before["journal"]["appended"]
            raw["trace.verify_s"] = verify_s
        return {
            "setup_s": setup_s,
            "verify_s": verify_s,
            "records": records,
            "raw": raw,
            "peak_rss_kb": daemon.peak_rss_kb(),
        }
    finally:
        daemon.close()


def _add_service_times(client, record: dict, raw: dict) -> None:
    """Queue wait and run time of one job, from its event timestamps."""
    stamps = {event["event"]: event["timestamp"] for event in client.events(record["job_id"], follow=False)}
    queue_wait = stamps["job_started"] - stamps["job_queued"]
    run = stamps["job_finished"] - stamps["job_started"]
    raw["service.queue_wait_s"] = raw.get("service.queue_wait_s", 0.0) + queue_wait
    raw["service.run_s"] = raw.get("service.run_s", 0.0) + run
    raw["wire.overhead_s"] = raw.get("wire.overhead_s", 0.0) + record["latency_s"] - run
