"""Subprocess tests of the network daemon's shutdown discipline.

SIGTERM must *drain*: stop accepting, settle or journal in-flight work,
exit 0.  SIGKILL must be *recoverable*: whatever the journal acknowledged
is re-served or re-run by the next daemon.  Both are exercised against a
real ``repro-verify serve --tcp`` subprocess, alongside a wire-fault
scenario (injected frame truncation) that the client's retry loop must
absorb end to end.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.service import VerificationService
from repro.service.service import service_statistics
from repro.service.client import VerificationClient

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def tcp_daemon(tmp_path, *extra_args, journal=True, env_extra=None) -> tuple[subprocess.Popen, str, int]:
    """Start ``repro-verify serve --tcp 127.0.0.1:0``; returns (proc, host, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_PLAN", None)
    env.update(env_extra or {})
    command = [sys.executable, "-m", "repro.cli", "serve", "--tcp", "127.0.0.1:0"]
    if journal:
        command += ["--journal-dir", str(tmp_path / "journal")]
    command += list(extra_args)
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    if not line:
        proc.kill()
        raise AssertionError(f"daemon died before announcing a port: {proc.stderr.read()}")
    announced = json.loads(line)
    assert announced["type"] == "listening"
    return proc, announced["host"], announced["port"]


class TestSigtermDrain:
    def test_sigterm_exits_zero_and_journals_backlog(self, tmp_path):
        """SIGTERM mid-batch: clean exit, queued jobs journalled and resumable."""
        proc, host, port = tcp_daemon(tmp_path, "--drain-timeout", "20")
        jobs: list[str] = []
        try:
            with VerificationClient(host, port, timeout=30) as client:
                # One dispatcher: most of these are still queued when the
                # signal lands.
                for _ in range(5):
                    jobs.append(client.submit("majority"))
        finally:
            proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=120) == 0

        # The port is released.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2).close()

        # Every submitted job either finished before the drain or was left
        # journalled; the next service finishes the rest — zero lost jobs.
        before = service_statistics()
        with VerificationService(journal_dir=tmp_path / "journal") as service:
            after = service_statistics()
            restored = sum(after[key] - before[key] for key in ("recovered", "resumed"))
            assert restored == len(jobs)
            for job_id in jobs:
                handle = service.job(job_id)
                assert handle.wait(timeout=300)
                assert handle.status().value == "done"

    def test_sigterm_without_journal_cancels_backlog_and_exits_zero(self, tmp_path):
        proc, host, port = tcp_daemon(tmp_path, "--drain-timeout", "20", journal=False)
        try:
            with VerificationClient(host, port, timeout=30) as client:
                for _ in range(3):
                    client.submit("majority")
        finally:
            proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=120) == 0

    def test_draining_daemon_sheds_new_connections(self, tmp_path):
        """A connection arriving mid-drain gets an explicit refusal or a
        closed port — never a hang."""
        proc, host, port = tcp_daemon(tmp_path, "--drain-timeout", "20")
        try:
            with VerificationClient(host, port, timeout=30) as client:
                for _ in range(4):
                    client.submit("majority")
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.1)
            try:
                sock = socket.create_connection((host, port), timeout=2)
            except OSError:
                pass  # listener already closed: equally fine
            else:
                sock.close()
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


class TestSigkillOverTcp:
    def test_sigkill_then_restart_recovers_every_acknowledged_job(self, tmp_path):
        proc, host, port = tcp_daemon(tmp_path)
        jobs: list[str] = []
        try:
            with VerificationClient(host, port, timeout=30) as client:
                for _ in range(3):
                    jobs.append(client.submit("majority"))
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
        assert proc.returncode != 0

        # Acknowledged means fsynced: the restarted daemon serves all of it.
        proc2, host2, port2 = tcp_daemon(tmp_path)
        try:
            with VerificationClient(host2, port2, timeout=30) as client:
                for job_id in jobs:
                    assert client.wait(job_id, timeout=300) == "done"
                    assert "report" in client.result(job_id)
        finally:
            proc2.send_signal(signal.SIGTERM)
            assert proc2.wait(timeout=120) == 0


class TestWireFaultsEndToEnd:
    def test_truncated_frames_are_absorbed_by_client_retries(self, tmp_path):
        """A daemon that tears every 3rd response frame still serves a
        correct, complete session through the retrying client."""
        plan = json.dumps(
            {
                "seed": 7,
                "faults": [
                    {"site": "net.send", "action": "truncate", "at": 2, "match": {"kind": "response"}},
                    {"site": "net.send", "action": "drop", "at": 5, "match": {"kind": "response"}},
                ],
            }
        )
        proc, host, port = tcp_daemon(
            tmp_path, journal=False, env_extra={"REPRO_FAULT_PLAN": plan}
        )
        try:
            with VerificationClient(host, port, timeout=5) as client:
                job = client.submit("majority")
                assert client.wait(job, timeout=300) == "done"
                result = client.result(job)
                assert result["status"] == "done" and "report" in result
                assert client.statistics["retries"] >= 1
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120) == 0
