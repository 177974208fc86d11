"""The verification service: jobs, priorities, events, cancellation, parity.

Covers the tentpole guarantees of the service PR:

* ``Verifier.check`` (the synchronous facade) and a directly submitted job
  produce byte-identical verdict payloads;
* events arrive in a sane order, through subscribers and the iterator API,
  and the finished report embeds the trail in its statistics;
* priorities order the queue; a cancelled job frees its workers and later
  jobs still complete (queued *and* running cancellation).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import Verifier
from repro.engine.monitor import JobCancelledError
from repro.protocols.library import broadcast_protocol, majority_protocol, remainder_protocol
from repro.service import JobNotFinished, JobStatus, VerificationService
from repro.service.events import JobFinished, JobQueued, event_from_dict

VOLATILE_KEYS = {"time", "timestamp", "events", "time_seconds", "worker_pid", "seq"}


def _volatile(key: str) -> bool:
    return key in VOLATILE_KEYS or key.endswith("_time")


def _stable(payload):
    """Strip run-dependent values so two runs of one check compare equal."""
    if isinstance(payload, dict):
        return {key: _stable(value) for key, value in payload.items() if not _volatile(key)}
    if isinstance(payload, list):
        return [_stable(item) for item in payload]
    return payload


class TestFacadeParity:
    def test_check_is_byte_identical_to_the_service_path(self):
        """Acceptance bar: facade and job API verdicts match byte for byte."""
        with Verifier() as verifier:
            via_facade = verifier.check(majority_protocol(), properties=["ws3"])
        with VerificationService() as service:
            handle = service.submit(majority_protocol(), properties=["ws3"])
            handle.wait()
            via_service = handle.result()
        facade_bytes = json.dumps(_stable(via_facade.to_dict()), sort_keys=True)
        service_bytes = json.dumps(_stable(via_service.to_dict()), sort_keys=True)
        assert facade_bytes == service_bytes

    def test_facade_report_embeds_the_event_trail(self):
        with Verifier() as verifier:
            report = verifier.check(broadcast_protocol())
        trail = [event_from_dict(entry) for entry in report.statistics["events"]]
        kinds = [event.TYPE for event in trail]
        assert kinds[0] == "job_queued" and kinds[-1] == "job_finished"
        assert "property_started" in kinds and "property_finished" in kinds
        assert isinstance(trail[0], JobQueued) and isinstance(trail[-1], JobFinished)
        # The trail survives the report's own lossless round-trip.
        from repro.api.report import VerificationReport

        clone = VerificationReport.from_json(report.to_json())
        assert clone.statistics["events"] == report.statistics["events"]

    def test_event_kinds_match_across_surfaces(self):
        """An inline check and a service job emit the same event sequence."""
        inline: list = []
        with Verifier() as verifier:
            verifier.check(broadcast_protocol(), on_event=lambda event: inline.append(event.TYPE))
        with VerificationService() as service:
            handle = service.submit(broadcast_protocol())
            assert handle.wait(timeout=120)
            submitted = [event.TYPE for event in handle.events_so_far()]
        assert inline == submitted
        assert inline[:2] == ["job_queued", "job_started"] and inline[-1] == "job_finished"

    def test_facade_propagates_checker_errors_unwrapped(self):
        with pytest.raises(ValueError, match="unknown property"):
            Verifier().check(broadcast_protocol(), properties=["never-registered"])


class TestJobLifecycle:
    def test_submit_is_non_blocking_and_result_never_blocks(self):
        with VerificationService() as service:
            handle = service.submit(majority_protocol())
            # result() must raise rather than block while the job runs/queues.
            if not handle.status().finished:
                with pytest.raises(JobNotFinished):
                    handle.result()
            assert handle.wait(timeout=120)
            report = handle.result()
            assert report.is_ws3
            assert handle.status() is JobStatus.DONE

    def test_events_iterator_sees_the_whole_ordered_stream(self):
        with VerificationService() as service:
            handle = service.submit(broadcast_protocol(), properties=["layered_termination"])
            events = list(handle.events(timeout=120))
        kinds = [event.TYPE for event in events]
        assert kinds[0] == "job_queued"
        assert kinds[-1] == "job_finished"
        assert [event.seq for event in events] == list(range(len(events)))

    def test_subscriber_replays_backlog_without_gaps(self):
        with VerificationService() as service:
            handle = service.submit(broadcast_protocol(), properties=["layered_termination"])
            handle.wait(timeout=120)
            seen: list[int] = []
            handle.subscribe(lambda event: seen.append(event.seq))
        assert seen == list(range(len(seen))) and seen  # backlog, in order

    def test_completion_subscriber_sees_a_finished_job(self):
        """The fetch-on-completion pattern: job_finished implies result()."""
        observed: dict = {}

        with VerificationService() as service:

            def on_event(event):
                if event.TYPE == "job_finished":
                    handle = service.job(event.job_id)
                    observed["status"] = handle.status().value
                    observed["ok"] = handle.result().ok  # must not raise

            handle = service.submit(
                broadcast_protocol(), properties=["layered_termination"], subscriber=on_event
            )
            assert handle.wait(timeout=120)
        assert observed == {"status": "done", "ok": True}

    def test_single_submits_share_the_result_cache(self, tmp_path):
        """A serve daemon's submit traffic must hit the cache, not just batches."""
        cache_dir = str(tmp_path / "cache")
        with VerificationService(cache_dir=cache_dir) as service:
            cold = service.submit(majority_protocol(), properties=["layered_termination"])
            assert cold.wait(timeout=240) and cold.result().ok
        with VerificationService(cache_dir=cache_dir) as service:
            warm = service.submit(majority_protocol(), properties=["layered_termination"])
            assert warm.wait(timeout=240)
            report = warm.result()
            assert report.ok
            assert report.statistics.get("from_cache") is True
            kinds = [event.TYPE for event in warm.events_so_far()]
            assert "cache_hit" in kinds
            # The cached report carries *this* job's trail, ending in its finish.
            assert report.statistics["events"][-1]["event"] == "job_finished"

    def test_broken_subscriber_does_not_break_the_job(self):
        def explode(event):
            raise RuntimeError("subscriber bug")

        with VerificationService() as service:
            handle = service.submit(broadcast_protocol(), subscriber=explode)
            handle.wait(timeout=120)
            assert handle.result().ok
        assert service.statistics["subscriber_errors"] > 0

    def test_job_lookup_by_id(self):
        with VerificationService() as service:
            handle = service.submit(broadcast_protocol())
            assert service.job(handle.job_id).job_id == handle.job_id
            with pytest.raises(KeyError):
                service.job("job-999")
            handle.wait(timeout=120)

    def test_closed_service_rejects_submissions(self):
        service = VerificationService()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(broadcast_protocol())


def _hold_dispatcher(started: threading.Event, gate: threading.Event):
    """A subscriber that parks the dispatcher inside its job's ``job_started``.

    ``job_started`` is recorded on the dispatcher thread, so once ``started``
    is set the dispatcher has popped this job and the queue can build up
    behind it until ``gate`` opens.
    """

    def subscriber(event):
        if event.TYPE == "job_started":
            started.set()
            gate.wait(30)

    return subscriber


class TestPriorities:
    def test_higher_priority_jobs_run_first(self):
        order: list[str] = []
        started, gate = threading.Event(), threading.Event()

        with VerificationService() as service:
            # Hold the single dispatcher hostage so the queue builds up; the
            # queued jobs are submitted only once it has popped the blocker.
            blocker = service.submit(
                broadcast_protocol(), subscriber=_hold_dispatcher(started, gate)
            )
            assert started.wait(30)
            low = service.submit(
                remainder_protocol([1], 3, 1),
                properties=["layered_termination"],
                priority=1,
                subscriber=lambda e, t="low": order.append(t) if e.TYPE == "job_started" else None,
            )
            high = service.submit(
                majority_protocol(),
                properties=["layered_termination"],
                priority=10,
                subscriber=lambda e, t="high": order.append(t) if e.TYPE == "job_started" else None,
            )
            gate.set()
            assert blocker.wait(timeout=120) and low.wait(timeout=120) and high.wait(timeout=120)
        assert order == ["high", "low"]


class TestCancellation:
    def test_cancelled_queued_job_never_runs_and_later_jobs_complete(self):
        started, gate = threading.Event(), threading.Event()
        with VerificationService() as service:
            blocker = service.submit(
                broadcast_protocol(), subscriber=_hold_dispatcher(started, gate)
            )
            # Only once the dispatcher runs the blocker is `doomed` sure to
            # stay queued (with priority 5 it would otherwise run first).
            assert started.wait(30)
            doomed = service.submit(majority_protocol(), priority=5)
            survivor = service.submit(remainder_protocol([1], 3, 1), priority=1)
            assert doomed.cancel()
            gate.set()
            assert survivor.wait(timeout=240) and doomed.wait(timeout=240)
            assert blocker.wait(timeout=240)

            assert doomed.status() is JobStatus.CANCELLED
            with pytest.raises(JobCancelledError):
                doomed.result()
            kinds = [event.TYPE for event in doomed.events_so_far()]
            assert kinds == ["job_queued", "job_finished"]  # it never started
            finish = doomed.events_so_far()[-1]
            assert finish.outcome == "cancelled"

            # The cancelled job freed its slot: the later job completed.
            assert survivor.status() is JobStatus.DONE
            assert survivor.result().is_ws3

    def test_cancelling_a_running_job_stops_it_at_a_checkpoint(self):
        cancelled_at = threading.Event()

        with VerificationService() as service:

            def cancel_once_checking(event):
                # Fires synchronously on the dispatcher thread right before
                # the checker runs; the job must then stop at the very next
                # cooperative checkpoint (a pattern-pair iteration).
                if event.TYPE == "property_started":
                    service.job(event.job_id).cancel()
                    cancelled_at.set()

            handle = service.submit(
                remainder_protocol([1], 5, 2),
                properties=["strong_consensus"],
                subscriber=cancel_once_checking,
            )
            assert handle.wait(timeout=240)
            assert cancelled_at.is_set()
            assert handle.status() is JobStatus.CANCELLED
            with pytest.raises(JobCancelledError):
                handle.result()

            # Workers are free: a job submitted afterwards completes cleanly.
            after = service.submit(broadcast_protocol(), properties=["layered_termination"])
            assert after.wait(timeout=240)
            assert after.result().ok

    def test_cancel_after_finish_returns_false(self):
        with VerificationService() as service:
            handle = service.submit(broadcast_protocol(), properties=["layered_termination"])
            handle.wait(timeout=120)
            assert handle.cancel() is False
            assert handle.status() is JobStatus.DONE


class TestBatchJobs:
    def test_submit_batch_returns_batch_result_with_cache_hits(self, tmp_path):
        protocols = [majority_protocol(), majority_protocol(), broadcast_protocol()]
        with VerificationService(cache_dir=str(tmp_path / "cache")) as service:
            cold = service.submit_batch(protocols, properties=["layered_termination"])
            cold.wait(timeout=240)
            assert cold.result().all_ok
        with VerificationService(cache_dir=str(tmp_path / "cache")) as service:
            warm = service.submit_batch(protocols, properties=["layered_termination"])
            warm.wait(timeout=240)
            batch = warm.result()
            assert batch.statistics["cache"]["hits"] > 0
            kinds = [event.TYPE for event in warm.events_so_far()]
            assert "cache_hit" in kinds
            assert batch.statistics["events"]  # the trail is embedded here too


class TestConcurrentWorkers:
    def test_two_workers_share_one_service(self):
        with VerificationService(workers=2) as service:
            handles = [
                service.submit(majority_protocol(), properties=["layered_termination"]),
                service.submit(broadcast_protocol(), properties=["layered_termination"]),
                service.submit(remainder_protocol([1], 3, 1), properties=["layered_termination"]),
            ]
            for handle in handles:
                assert handle.wait(timeout=240)
                assert handle.result().ok
        assert service.statistics["completed"] == 3


class TestVerifierServiceSurface:
    def test_service_contexts_are_its_verifiers(self):
        with VerificationService() as service:
            handle = service.submit(broadcast_protocol(), properties=["layered_termination"])
            assert handle.wait(timeout=120)
            assert handle.result().ok
            # The service runs its jobs on its verifier: both see the same
            # per-protocol context object, and the same options and engine.
            verifier = service.verifier
            assert service.analysis_context(broadcast_protocol()) is verifier.analysis_context(
                broadcast_protocol()
            )
            assert service.options is verifier.options
            assert service.engine is verifier.engine

    def test_subproblem_envelopes_carry_the_job_id(self):
        from repro.engine.monitor import JobBinding, bound_to_job
        from repro.engine.subproblem import Subproblem

        sub = Subproblem(kind="poison", index=0, protocol_key="k", protocol_data={})
        assert sub.job_id is None  # unbound: plain library use
        with bound_to_job(JobBinding("job-42", record=lambda event: None)):
            bound = Subproblem(kind="poison", index=0, protocol_key="k", protocol_data={})
        assert bound.job_id == "job-42"


def test_finished_jobs_are_evicted_beyond_the_retention_bound(monkeypatch):
    """A long-running daemon must not index every job it ever ran."""
    from repro.service import service as service_module

    monkeypatch.setattr(service_module, "_MAX_FINISHED_JOBS", 2)
    with VerificationService() as service:
        handles = [
            service.submit(broadcast_protocol(), properties=["layered_termination"])
            for _ in range(4)
        ]
        for handle in handles:
            assert handle.wait(timeout=240)
        # One more finish triggers eviction bookkeeping for the backlog.
        last = service.submit(broadcast_protocol(), properties=["layered_termination"])
        assert last.wait(timeout=240)
        assert len(service.jobs()) <= 3  # bound + the job that triggered it
        with pytest.raises(KeyError):
            service.job(handles[0].job_id)
        # Held handles keep working after eviction.
        assert handles[0].result().ok


def test_service_timestamps_are_monotone_enough():
    with VerificationService() as service:
        handle = service.submit(broadcast_protocol(), properties=["layered_termination"])
        handle.wait(timeout=120)
        stamps = [event.timestamp for event in handle.events_so_far()]
    assert stamps == sorted(stamps)
    assert all(stamp > time.time() - 3600 for stamp in stamps)
