"""Unit tests of the durable job journal and its service-level replay."""

from __future__ import annotations

import json

import pytest

from repro.service import JobJournal, VerificationService
from repro.service.journal import journal_statistics
from repro.service.service import service_statistics
from repro.protocols.library import broadcast_protocol, majority_protocol


class TestJobJournal:
    def test_append_validates_records(self, tmp_path):
        journal = JobJournal(tmp_path)
        with pytest.raises(ValueError, match="'record' kind"):
            journal.append({"record": "bogus", "job": "job-1"})
        with pytest.raises(ValueError, match="'job' id"):
            journal.append({"record": "submitted"})

    def test_load_merges_last_wins(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"record": "submitted", "job": "job-1", "kind": "check"})
        journal.append({"record": "started", "job": "job-1"})
        journal.append({"record": "finished", "job": "job-1", "status": "done", "error": ""})
        states = journal.load()
        assert list(states) == ["job-1"]
        state = states["job-1"]
        assert state["started"] is True
        assert state["finished"] is True
        assert state["status"] == "done"

    def test_submitted_only_job_is_unfinished(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"record": "submitted", "job": "job-3", "kind": "check"})
        state = journal.load()["job-3"]
        assert state["started"] is False
        assert "finished" not in state

    def test_torn_final_line_is_skipped(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"record": "submitted", "job": "job-1", "kind": "check"})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "finished", "job": "job-1", "sta')  # torn mid-append
        torn = journal_statistics()["torn"]
        states = journal.load()
        assert "finished" not in states["job-1"]
        assert journal_statistics()["torn"] == torn + 1
        assert len(journal) == 1

    def test_records_for_unknown_jobs_are_dropped(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"record": "started", "job": "job-9"})
        assert journal.load() == {}

    def test_replay_is_idempotent(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"record": "submitted", "job": "job-1", "kind": "check"})
        journal.append({"record": "started", "job": "job-1"})
        assert journal.load() == journal.load()

    def test_submission_order_is_preserved(self, tmp_path):
        journal = JobJournal(tmp_path)
        for job_id in ("job-2", "job-1", "job-5"):
            journal.append({"record": "submitted", "job": job_id, "kind": "check"})
        assert list(journal.load()) == ["job-2", "job-1", "job-5"]

    def test_lines_are_compact_json(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"record": "submitted", "job": "job-1", "kind": "check"})
        line = journal.path.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(line)["job"] == "job-1"
        assert ": " not in line  # compact separators


class TestServiceReplay:
    def test_finished_results_survive_restart(self, tmp_path):
        with VerificationService(journal_dir=tmp_path) as service:
            handle = service.submit(majority_protocol(), ["ws3"])
            assert handle.wait(timeout=300)
            report = handle.result()
        recovered = service_statistics()["recovered"]
        with VerificationService(journal_dir=tmp_path) as restarted:
            assert service_statistics()["recovered"] == recovered + 1
            recovered = restarted.job(handle.job_id)
            assert recovered.status().value == "done"
            assert recovered.result().is_ws3 == report.is_ws3
            assert recovered.result().protocol_hash == report.protocol_hash

    def test_restart_appends_nothing(self, tmp_path):
        """Recovery must not re-journal what is already journalled."""
        with VerificationService(journal_dir=tmp_path) as service:
            handle = service.submit(majority_protocol(), ["ws3"])
            assert handle.wait(timeout=300)
        length = len(JobJournal(tmp_path))
        for _ in range(2):
            VerificationService(journal_dir=tmp_path).close()
            assert len(JobJournal(tmp_path)) == length

    def test_unfinished_job_is_resumed_and_run(self, tmp_path):
        journal = JobJournal(tmp_path)
        from repro.io.serialization import protocol_to_dict

        journal.append(
            {
                "record": "submitted",
                "job": "job-4",
                "kind": "check",
                "priority": 0,
                "properties": ["ws3"],
                "protocol_name": "majority",
                "protocol": protocol_to_dict(majority_protocol()),
            }
        )
        journal.append({"record": "started", "job": "job-4"})
        resumed = service_statistics()["resumed"]
        with VerificationService(journal_dir=tmp_path) as service:
            assert service_statistics()["resumed"] == resumed + 1
            handle = service.job("job-4")
            assert handle.wait(timeout=300)
            assert handle.result().is_ws3
            trail = [event.TYPE for event in handle.events_so_far()]
            assert trail[:2] == ["job_queued", "job_recovered"]
            recovered = [e for e in handle.events_so_far() if e.TYPE == "job_recovered"]
            assert recovered[0].had_started is True
            # Fresh ids continue past every journalled id.
            fresh = service.submit(broadcast_protocol(), ["ws3"])
            assert fresh.job_id == "job-5"
            assert fresh.wait(timeout=300)

    def test_resume_false_restores_results_but_not_the_queue(self, tmp_path):
        journal = JobJournal(tmp_path)
        from repro.io.serialization import protocol_to_dict

        journal.append(
            {
                "record": "submitted",
                "job": "job-1",
                "kind": "check",
                "properties": ["ws3"],
                "protocol": protocol_to_dict(majority_protocol()),
            }
        )
        resumed = service_statistics()["resumed"]
        with VerificationService(journal_dir=tmp_path, resume=False) as service:
            assert service_statistics()["resumed"] == resumed
            assert service.pending_count() == 0
            with pytest.raises(KeyError):
                service.job("job-1")

    def test_batch_results_survive_restart(self, tmp_path):
        protocols = [majority_protocol(), broadcast_protocol()]
        with VerificationService(journal_dir=tmp_path) as service:
            handle = service.submit_batch(protocols, ["ws3"])
            assert handle.wait(timeout=300)
            original = handle.result()
        with VerificationService(journal_dir=tmp_path) as restarted:
            recovered = restarted.job(handle.job_id).result()
            assert len(recovered) == len(original)
            assert [item.ok for item in recovered] == [item.ok for item in original]
            assert [item.protocol_hash for item in recovered] == [
                item.protocol_hash for item in original
            ]

    def test_failed_jobs_recover_as_failed(self, tmp_path):
        from repro.service import JobFailedError

        journal = JobJournal(tmp_path)
        from repro.io.serialization import protocol_to_dict

        journal.append(
            {
                "record": "submitted",
                "job": "job-1",
                "kind": "check",
                "properties": ["ws3"],
                "protocol": protocol_to_dict(majority_protocol()),
            }
        )
        journal.append(
            {
                "record": "finished",
                "job": "job-1",
                "status": "failed",
                "error": "RuntimeError: solver exploded",
            }
        )
        with VerificationService(journal_dir=tmp_path) as service:
            handle = service.job("job-1")
            assert handle.status().value == "failed"
            with pytest.raises(JobFailedError, match="solver exploded"):
                handle.result()


class TestCompaction:
    def fill(self, journal, jobs=5, finishes=3):
        for index in range(jobs):
            job = f"job-{index + 1}"
            journal.append({"record": "submitted", "job": job, "kind": "check", "priority": index})
            journal.append({"record": "started", "job": job})
            for _ in range(finishes):
                # Superseded finishes (e.g. re-runs after recovery): only
                # the last one matters.
                journal.append({"record": "finished", "job": job, "status": "failed", "error": "old"})
            journal.append({"record": "finished", "job": job, "status": "done", "error": ""})

    def test_compact_preserves_replay_exactly(self, tmp_path):
        journal = JobJournal(tmp_path)
        self.fill(journal)
        before = journal.load()
        compacted = journal_statistics()["compacted"]
        result = journal.compact()
        assert journal.load() == before
        assert result["jobs"] == 5
        assert result["after_bytes"] < result["before_bytes"]
        assert journal_statistics()["compacted"] == compacted + 1

    def test_compact_drops_superseded_and_torn_lines(self, tmp_path):
        journal = JobJournal(tmp_path)
        self.fill(journal, jobs=2)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "submitted", "job": "job-9", "ki')  # torn tail
        journal.compact()
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        # Exactly submitted + started + finished per job, nothing else.
        assert len(lines) == 2 * 3
        records = [json.loads(line) for line in lines]
        assert all(record["record"] in ("submitted", "started", "finished") for record in records)
        assert {record["job"] for record in records} == {"job-1", "job-2"}

    def test_compact_keeps_unfinished_jobs_resumable(self, tmp_path):
        journal = JobJournal(tmp_path)
        from repro.io.serialization import protocol_to_dict

        journal.append(
            {
                "record": "submitted",
                "job": "job-1",
                "kind": "check",
                "properties": ["ws3"],
                "protocol": protocol_to_dict(majority_protocol()),
                "priority": 0,
                "predicate": None,
            }
        )
        journal.append({"record": "started", "job": "job-1"})
        journal.compact()
        resumed = service_statistics()["resumed"]
        with VerificationService(journal_dir=tmp_path) as service:
            assert service_statistics()["resumed"] == resumed + 1
            handle = service.job("job-1")
            assert handle.wait(timeout=300)
            assert handle.result().is_ws3

    def test_auto_compaction_at_startup_threshold(self, tmp_path):
        journal = JobJournal(tmp_path)
        self.fill(journal, jobs=3, finishes=20)
        size = journal.size_bytes()
        # Reopening with a threshold below the current size compacts; the
        # default (8 MiB) leaves this small file alone.
        untouched = JobJournal(tmp_path)
        assert untouched.size_bytes() == size
        compactions = journal_statistics()["compacted"]
        compacted = JobJournal(tmp_path, compact_threshold_bytes=100)
        assert compacted.size_bytes() < size
        assert journal_statistics()["compacted"] == compactions + 1
        assert compacted.load() == journal.load()

    def test_compaction_disabled_with_none(self, tmp_path):
        journal = JobJournal(tmp_path)
        self.fill(journal, jobs=1, finishes=10)
        size = journal.size_bytes()
        reopened = JobJournal(tmp_path, compact_threshold_bytes=None)
        assert reopened.size_bytes() == size

    def test_compact_empty_journal_is_a_noop(self, tmp_path):
        journal = JobJournal(tmp_path)
        result = journal.compact()
        assert result["jobs"] == 0

    def test_service_survives_compaction_between_runs(self, tmp_path):
        def normalized(report_dict):
            # Recovery re-stamps statistics["events"] with the restart's
            # own (synthetic) trail even without compaction; everything
            # else must survive byte-identically.
            clone = json.loads(json.dumps(report_dict))
            clone.get("statistics", {}).pop("events", None)
            return clone

        with VerificationService(journal_dir=tmp_path) as service:
            handle = service.submit(broadcast_protocol(), ["ws3"])
            assert handle.wait(timeout=300)
            original = handle.result().to_dict()
        JobJournal(tmp_path).compact()
        with VerificationService(journal_dir=tmp_path) as restarted:
            recovered = restarted.job(handle.job_id).result().to_dict()
            assert normalized(recovered) == normalized(original)
