"""Retry policy, backend degradation, and partial verdicts under injected faults."""

from __future__ import annotations

import json

import pytest

from repro.api.options import VerificationOptions
from repro.api.report import Verdict
from repro.api.verifier import Verifier
from repro.constraints.backends import (
    ResilientSolver,
    demoted_backends,
    effective_backend,
    health_statistics,
    reset_backend_health,
)
from repro.engine import DEFAULT_RETRY, NO_RETRY, RetryPolicy
from repro.engine.scheduler import engine_statistics
from repro.protocols.library import broadcast_protocol, majority_protocol
from repro.service import VerificationService
from repro.smtlite.solver import SolverStatus
from repro.testing import ENV_VAR, FaultInjected, clear_plan, install_plan


@pytest.fixture(autouse=True)
def _clean_fault_state():
    yield
    clear_plan()
    reset_backend_health()


class TestRetryPolicy:
    def test_defaults(self):
        assert DEFAULT_RETRY.max_retries == 2
        assert DEFAULT_RETRY.enabled
        assert not NO_RETRY.enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(subproblem_timeout=0)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=2.0, max_backoff_seconds=0.3)
        assert policy.backoff_delay(1) == pytest.approx(0.1)
        assert policy.backoff_delay(2) == pytest.approx(0.2)
        assert policy.backoff_delay(3) == pytest.approx(0.3)  # capped
        assert policy.backoff_delay(0) == 0.0

    def test_round_trip_and_replace(self):
        policy = DEFAULT_RETRY.replace(max_retries=5, subproblem_timeout=9.0)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(ValueError, match="unknown"):
            RetryPolicy.from_dict({"max_tries": 1})

    def test_options_coerce_dict_and_exclude_retry_from_cache_key(self):
        options = VerificationOptions(retry={"max_retries": 7})
        assert isinstance(options.retry, RetryPolicy)
        assert options.retry.max_retries == 7
        assert "retry" not in options.cache_snapshot()
        # Execution knobs must not partition the result cache: two runs
        # differing only in retry policy share verdicts.
        assert (
            VerificationOptions(retry=NO_RETRY).cache_snapshot() == options.cache_snapshot()
        )

    def test_options_round_trip_preserves_retry(self):
        options = VerificationOptions(retry={"max_retries": 4})
        rebuilt = VerificationOptions.from_dict(options.to_dict())
        assert rebuilt.retry == options.retry


class TestBackendDegradation:
    """The last hop of the chain: smtlite on scipy → smtlite on the exact theory."""

    def test_crashed_check_falls_back_along_the_chain(self):
        clean = ResilientSolver(backend="smtlite")
        clean.add(clean.int_var("x", lower=0, upper=5) >= 3)
        expected = clean.check().status
        install_plan({"faults": [{"site": "backend.check", "action": "raise", "at": 1}]})
        solver = ResilientSolver(backend="smtlite")
        assert solver.theory_name == "scipy"
        x = solver.int_var("x", lower=0, upper=5)
        solver.add(x >= 3)
        result = solver.check()
        assert result.status is expected is SolverStatus.SAT
        assert solver.backend_name == "smtlite"
        assert solver.theory_name == "exact"
        assert set(demoted_backends()) == {"smtlite"}
        stats = health_statistics()
        assert stats["demotions"] == 1
        assert stats["failed_checks"] == 1
        assert stats["replays"] == 1

    def test_replay_preserves_the_constraint_store(self):
        install_plan({"faults": [{"site": "backend.check", "action": "raise", "at": 2}]})
        solver = ResilientSolver(backend="smtlite")
        x = solver.int_var("x", lower=0, upper=10)
        solver.add(x >= 4)
        assert solver.check().status is SolverStatus.SAT  # occurrence 1: fine
        solver.add(x <= 3)
        # Occurrence 2 crashes smtlite on scipy; the store replayed into
        # smtlite on the exact theory must still hold both constraints.
        assert solver.check().status is SolverStatus.UNSAT
        assert solver.theory_name == "exact"

    def test_exhausted_chain_re_raises(self):
        install_plan({"faults": [{"site": "backend.check", "action": "raise"}]})
        solver = ResilientSolver(backend="smtlite")
        x = solver.int_var("x")
        solver.add(x >= 0)
        with pytest.raises(FaultInjected):
            solver.check()
        # One hop (scipy → exact), then the crash on the exact theory re-raises.
        assert solver.theory_name == "exact"
        assert set(demoted_backends()) == {"smtlite"}
        stats = health_statistics()
        assert (stats["demotions"], stats["failed_checks"], stats["replays"]) == (1, 2, 1)

    def test_demotion_is_session_wide(self):
        install_plan({"faults": [{"site": "backend.check", "action": "raise", "at": 1}]})
        crashed = ResilientSolver(backend="smtlite")
        x = crashed.int_var("x")
        crashed.add(x >= 0)
        crashed.check()
        # A *new* smtlite solver starts on the exact theory.
        assert effective_backend("smtlite") == "smtlite"
        fresh = ResilientSolver(backend="smtlite")
        assert (fresh.backend_name, fresh.theory_name) == ("smtlite", "exact")
        reset_backend_health()
        assert ResilientSolver(backend="smtlite").theory_name == "scipy"

    def test_degradation_does_not_change_the_verdict(self):
        install_plan({"faults": [{"site": "backend.check", "action": "raise", "at": 1}]})
        with Verifier() as verifier:
            degraded = verifier.check(majority_protocol(), properties=["ws3"])
        assert set(demoted_backends()) == {"smtlite"}
        reset_backend_health()
        clear_plan()
        with Verifier() as verifier:
            clean = verifier.check(majority_protocol(), properties=["ws3"])
        assert degraded.is_ws3 == clean.is_ws3
        for name in ("ws3",):
            assert degraded.result_for(name).verdict == clean.result_for(name).verdict


class TestEngineRetry:
    def test_killed_worker_is_retried(self, tmp_path, monkeypatch):
        plan = {
            "seed": 3,
            "state_dir": str(tmp_path / "fault-state"),
            "faults": [{"site": "worker.solve", "action": "kill", "at": 1}],
        }
        monkeypatch.setenv(ENV_VAR, json.dumps(plan))
        clear_plan()  # make the workers (and this process) read the env plan
        protocols = [majority_protocol(), broadcast_protocol()]
        before = engine_statistics()
        with Verifier(jobs=2) as verifier:
            batch = verifier.check_many(protocols, properties=["ws3"])
            after = engine_statistics()
            assert after["worker_deaths"] > before["worker_deaths"]
            assert after["retries"] > before["retries"]
        assert [item.is_ws3 for item in batch] == [True, True]

    def test_without_retry_the_death_is_fatal(self, tmp_path, monkeypatch):
        plan = {
            "state_dir": str(tmp_path / "fault-state"),
            "faults": [{"site": "worker.solve", "action": "kill", "times": 10}],
        }
        monkeypatch.setenv(ENV_VAR, json.dumps(plan))
        clear_plan()
        protocols = [majority_protocol(), broadcast_protocol()]
        with pytest.raises(Exception, match="worker process died"):
            with Verifier(jobs=2, retry=NO_RETRY) as verifier:
                verifier.check_many(protocols, properties=["ws3"])

    def test_retry_emits_subproblem_retried_events(self, tmp_path, monkeypatch):
        plan = {
            "state_dir": str(tmp_path / "fault-state"),
            "faults": [{"site": "worker.solve", "action": "kill", "at": 1}],
        }
        monkeypatch.setenv(ENV_VAR, json.dumps(plan))
        clear_plan()
        with VerificationService(jobs=2) as service:
            handle = service.submit_batch(
                [majority_protocol(), broadcast_protocol()], ["ws3"]
            )
            assert handle.wait(timeout=300)
            assert handle.result().all_ok
            retried = [e for e in handle.events_so_far() if e.TYPE == "subproblem_retried"]
            assert retried, "expected at least one subproblem_retried event"
            assert retried[0].attempt >= 2
            assert "worker" in retried[0].reason or "died" in retried[0].reason


class TestPartialVerdicts:
    def test_exhausted_job_budget_reports_partial(self):
        policy = DEFAULT_RETRY.replace(job_timeout=1e-6)
        with VerificationService(retry=policy) as service:
            handle = service.submit(
                majority_protocol(), ["ws3", "strong_consensus", "layered_termination"]
            )
            assert handle.wait(timeout=300)
            report = handle.result()
        assert handle.status().value == "done"
        assert report.partial
        assert all(prop.verdict is Verdict.PARTIAL for prop in report.properties)
        assert report.statistics.get("partial") is True
        # PARTIAL is indecision, not failure: the report is still "ok".
        assert report.ok

    def test_partial_reports_are_never_cached(self, tmp_path):
        cache_dir = tmp_path / "cache"
        policy = DEFAULT_RETRY.replace(job_timeout=1e-6)
        with VerificationService(retry=policy, cache_dir=str(cache_dir)) as service:
            handle = service.submit(majority_protocol(), ["ws3"])
            assert handle.wait(timeout=300)
            assert handle.result().partial
        assert not list(cache_dir.glob("*.json")), "a partial report leaked into the cache"
        with VerificationService(cache_dir=str(cache_dir)) as service:
            handle = service.submit(majority_protocol(), ["ws3"])
            assert handle.wait(timeout=300)
            assert not handle.result().partial
        assert list(cache_dir.glob("*.json")), "the complete report should be cached"

    def test_partial_round_trips_through_serialization(self):
        from repro.api.report import PropertyResult, VerificationReport

        result = PropertyResult(
            property="ws3", verdict=Verdict.PARTIAL, reason="budget exhausted"
        )
        report = VerificationReport(
            protocol_name="p", protocol_hash="h", properties=[result], options={}, statistics={}
        )
        rebuilt = VerificationReport.from_dict(report.to_dict())
        assert rebuilt.partial
        assert rebuilt.result_for("ws3").verdict is Verdict.PARTIAL
        assert "PARTIAL" in "\n".join(rebuilt.result_for("ws3").describe())
