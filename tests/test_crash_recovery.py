"""Crash recovery end to end: SIGKILL a journalled daemon, restart, resume."""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys

from repro.protocols.library import majority_protocol
from repro.service import JobJournal, ServeSession, VerificationService
from repro.service.service import service_statistics


def _restored(before: dict) -> int:
    """Jobs recovered or resumed since ``before`` (a service_statistics())."""
    after = service_statistics()
    return sum(after[key] - before[key] for key in ("recovered", "resumed"))

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def serve_process(journal_dir) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_PLAN", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--journal-dir", str(journal_dir)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


class TestSigkillRecovery:
    def test_killed_daemon_resumes_after_restart(self, tmp_path):
        """The acceptance scenario: submit, SIGKILL, restart, same result."""
        journal_dir = tmp_path / "journal"
        proc = serve_process(journal_dir)
        try:
            proc.stdin.write(json.dumps({"op": "submit", "spec": "majority", "id": 1}) + "\n")
            proc.stdin.flush()
            # The response arrives only after the submission is fsynced to
            # the journal, so killing now cannot lose the job.
            response = json.loads(proc.stdout.readline())
            assert response["ok"] and response["job"] == "job-1"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
        assert proc.returncode != 0

        # A restarted service on the same journal finishes the job.
        before = service_statistics()
        with VerificationService(journal_dir=journal_dir) as service:
            assert _restored(before) == 1
            handle = service.job("job-1")
            assert handle.wait(timeout=300)
            assert handle.result().is_ws3

    def test_kill_mid_append_leaves_a_recoverable_journal(self, tmp_path):
        """A torn final line (simulated mid-append crash) never blocks replay."""
        journal_dir = tmp_path / "journal"
        with VerificationService(journal_dir=journal_dir) as service:
            handle = service.submit(majority_protocol(), ["ws3"])
            assert handle.wait(timeout=300)
        journal = JobJournal(journal_dir)
        with open(journal.path, "a", encoding="utf-8") as handle_:
            handle_.write('{"record": "submitted", "job": "job-2", "ki')  # torn
        recovered = service_statistics()["recovered"]
        with VerificationService(journal_dir=journal_dir) as service:
            assert service_statistics()["recovered"] == recovered + 1
            assert service.job("job-1").status().value == "done"


class TestEofLeavesQueueResumable:
    def test_eof_keeps_journalled_backlog(self, tmp_path):
        """With a journal, EOF must not cancel the queued backlog."""
        requests = [
            {"op": "submit", "spec": "majority", "id": 1},
            # Lower priority: stays queued behind job-1 on the single
            # dispatcher when EOF (right after these lines) closes the
            # session.
            {"op": "submit", "spec": "broadcast", "priority": -1, "id": 2},
        ]
        stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
        stdout = io.StringIO()
        service = VerificationService(journal_dir=tmp_path)
        assert ServeSession(service, stdin, stdout).run() == 0
        assert service.closed
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert all(r["ok"] for r in responses if r["type"] == "response")

        before = service_statistics()
        with VerificationService(journal_dir=tmp_path) as restarted:
            # Whatever the first session finished was recovered; the rest
            # was resumed, not cancelled — nothing is lost.
            assert _restored(before) == 2
            for job_id in ("job-1", "job-2"):
                handle = restarted.job(job_id)
                assert handle.wait(timeout=300)
                assert handle.status().value == "done"

    def test_shutdown_op_without_journal_still_cancels(self):
        requests = [
            {"op": "submit", "spec": "majority", "id": 1},
            {"op": "submit", "spec": "broadcast", "priority": -1, "id": 2},
            {"op": "shutdown", "id": 3},
        ]
        stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
        stdout = io.StringIO()
        service = VerificationService()
        assert ServeSession(service, stdin, stdout).run() == 0
        statuses = {handle.job_id: handle.status().value for handle in service.jobs()}
        assert statuses["job-2"] == "cancelled"
