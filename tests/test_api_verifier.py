"""Tests for the unified Verifier session API (options, registry, sessions)."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
import threading

import pytest

from repro.api import (
    PropertyChecker,
    PropertyResult,
    Verdict,
    VerificationOptions,
    VerificationReport,
    Verifier,
    available_properties,
    property_checker,
    register_property,
    unregister_property,
)
from repro.io.loading import ProtocolLoadError, resolve_protocol_spec
from repro.protocols.library import broadcast_protocol, coin_flip_protocol, majority_protocol


class TestVerificationOptions:
    def test_defaults_are_valid(self):
        options = VerificationOptions()
        assert options.strategy == "auto"
        assert options.jobs == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"strategy": "nonsense"},
            {"theory": "z3"},
            {"consensus_strategy": "bogus"},
            {"jobs": 0},
            {"max_layers": 0},
            {"max_refinements": 0},
            {"explicit_max_size": 1},
        ],
    )
    def test_invalid_options_rejected(self, overrides):
        with pytest.raises(ValueError):
            VerificationOptions(**overrides)

    def test_dict_round_trip(self):
        options = VerificationOptions(strategy="scc", theory="exact", jobs=3, max_layers=4)
        assert VerificationOptions.from_dict(options.to_dict()) == options

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown verification options"):
            VerificationOptions.from_dict({"strategy": "auto", "typo": 1})

    def test_cache_snapshot_excludes_execution_knobs(self):
        snapshot = VerificationOptions(jobs=7, cache_dir="/tmp/x").cache_snapshot()
        assert "jobs" not in snapshot and "cache_dir" not in snapshot
        assert snapshot["strategy"] == "auto"

    def test_replace_revalidates(self):
        options = VerificationOptions()
        assert options.replace(jobs=2).jobs == 2
        with pytest.raises(ValueError):
            options.replace(jobs=-1)


class TestRegistry:
    def test_builtin_properties_registered(self):
        assert {"ws3", "layered_termination", "strong_consensus", "correctness", "explicit"} <= set(
            available_properties()
        )

    def test_unknown_property_fails_fast(self):
        with pytest.raises(ValueError, match="unknown property"):
            Verifier().check(broadcast_protocol(), properties=["definitely-not-registered"])

    def test_duplicate_registration_rejected(self):
        checker = property_checker("ws3")
        with pytest.raises(ValueError, match="already registered"):
            register_property(checker)

    def test_custom_property_plugs_in(self):
        class AlwaysHolds(PropertyChecker):
            name = "always-holds"

            def check(self, protocol, options, *, engine=None, predicate=None):
                return PropertyResult(
                    property=self.name,
                    verdict=Verdict.HOLDS,
                    details={"states": protocol.num_states},
                )

        register_property(AlwaysHolds())
        try:
            report = Verifier().check(broadcast_protocol(), properties=["always-holds"])
            assert report.ok
            assert report.result_for("always-holds").details["states"] == 2
            clone = VerificationReport.from_json(report.to_json())
            assert clone == report
        finally:
            unregister_property("always-holds")
        assert "always-holds" not in available_properties()


class TestVerifierSessions:
    def test_single_property_string_accepted(self):
        report = Verifier().check(broadcast_protocol(), properties="layered_termination")
        assert [p.property for p in report.properties] == ["layered_termination"]

    def test_empty_property_list_rejected(self):
        with pytest.raises(ValueError):
            Verifier().check(broadcast_protocol(), properties=[])

    def test_engine_and_jobs_mutually_exclusive(self):
        from repro.engine import VerificationEngine

        engine = VerificationEngine(jobs=1)
        with pytest.raises(ValueError):
            Verifier(jobs=2, engine=engine)

    def test_closed_session_rejects_checks(self):
        verifier = Verifier()
        verifier.close()
        with pytest.raises(RuntimeError, match="closed"):
            verifier.check(broadcast_protocol())

    def test_session_reuses_one_engine_across_checks(self):
        with Verifier(jobs=2) as verifier:
            verifier.check(broadcast_protocol())
            assert verifier.engine is None  # a single check never starts a pool
            verifier.check_many([broadcast_protocol(), majority_protocol()])
            first = verifier.engine
            verifier.check_many([majority_protocol(), coin_flip_protocol()])
            assert verifier.engine is first
            assert first.jobs == 2
        # closed on exit: a fresh parallel call would need a new session
        assert verifier._owns_engine is False

    def test_report_statistics_record_properties_and_jobs(self):
        report = Verifier().check(broadcast_protocol())
        assert report.statistics["properties"] == ["ws3"]
        assert report.statistics["jobs"] == 1
        assert report.options["strategy"] == "auto"

    def test_check_many_dedupes_and_caches(self, tmp_path):
        with Verifier(cache_dir=str(tmp_path)) as verifier:
            batch = verifier.check_many(
                [broadcast_protocol(), broadcast_protocol(), coin_flip_protocol()]
            )
        assert batch.statistics["verified"] == 2
        assert batch.statistics["duplicates"] == 1
        assert [item.is_ws3 for item in batch] == [True, True, False]
        assert not batch.all_ws3 and not batch.all_ok
        with Verifier(cache_dir=str(tmp_path)) as verifier:
            warm = verifier.check_many([broadcast_protocol(), coin_flip_protocol()])
        assert all(item.from_cache for item in warm)

    def test_check_many_does_not_dedup_across_predicates(self):
        # Structurally identical protocols (same content hash) with
        # different documented predicates must be verified separately when
        # correctness is requested.
        right = broadcast_protocol()
        wrong = broadcast_protocol()
        wrong.metadata = dict(wrong.metadata)
        wrong.metadata["predicate"] = right.metadata["predicate"].negate()
        with Verifier() as verifier:
            batch = verifier.check_many([right, wrong], properties=["correctness"])
        assert batch.statistics["duplicates"] == 0
        assert [item.ok for item in batch] == [True, False]

    def test_check_many_with_plugin_property_and_parallel_engine(self):
        # Plugin checkers exist only in this process's registry; a parallel
        # batch must fall back to the coordinator's serial path instead of
        # shipping unresolvable names to worker processes.
        class CountStates(PropertyChecker):
            name = "count-states"

            def check(self, protocol, options, *, engine=None, predicate=None):
                return PropertyResult(
                    property=self.name,
                    verdict=Verdict.HOLDS,
                    details={"states": protocol.num_states},
                )

        register_property(CountStates())
        try:
            with Verifier(jobs=2) as verifier:
                batch = verifier.check_many(
                    [broadcast_protocol(), majority_protocol()],
                    properties=["count-states"],
                )
            assert [item.ok for item in batch] == [True, True]
            assert batch.items[1].report.result_for("count-states").details["states"] == 4
        finally:
            unregister_property("count-states")

    def test_check_many_non_ws3_properties(self):
        with Verifier() as verifier:
            batch = verifier.check_many(
                [broadcast_protocol(), coin_flip_protocol()],
                properties=["layered_termination"],
            )
        assert batch.statistics["properties"] == ["layered_termination"]
        assert [item.ok for item in batch] == [True, True]


class TestInlineCheck:
    """``Verifier.check`` runs on the calling thread, below the service layer."""

    def test_check_starts_no_thread_and_loads_no_service(self):
        script = (
            "import sys, threading\n"
            "from repro.api import Verifier\n"
            "from repro.protocols.library import broadcast_protocol\n"
            "before = threading.active_count()\n"
            "verifier = Verifier()\n"
            "assert verifier.check(broadcast_protocol()).ok\n"
            "print(threading.active_count() - before, 'repro.service.service' in sys.modules)\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["0", "False"]

    def test_api_and_engine_do_not_import_the_service(self):
        package = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        for layer in ("api", "engine"):
            for path in (package / layer).glob("*.py"):
                imported = set()
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.Import):
                        imported.update(alias.name for alias in node.names)
                    elif isinstance(node, ast.ImportFrom):
                        imported.add(node.module)
                        imported.update(f"{node.module}.{alias.name}" for alias in node.names)
                assert "repro.service.service" not in imported, path

    def test_threads_sharing_a_verifier_overlap_safely(self):
        """Concurrent checks share one context per protocol and get distinct job ids."""
        seen = []

        class RecordContext(PropertyChecker):
            name = "record-context"

            def check(self, protocol, options, *, predicate=None, context=None):
                seen.append((protocol.name, id(context)))
                return PropertyResult(property=self.name, verdict=Verdict.HOLDS)

        verifier = Verifier()
        factories = [broadcast_protocol, majority_protocol] * 4
        reports, errors = [], []
        start = threading.Barrier(len(factories))

        def run(factory):
            try:
                protocol = factory()
                start.wait(timeout=30)
                reports.append(verifier.check(protocol, properties=["record-context"]))
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        register_property(RecordContext())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(factory,)) for factory in factories]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            unregister_property("record-context")
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(reports) == len(factories)
        assert all(report.ok for report in reports)
        # One analysis context per protocol, whichever thread created it.
        assert len(seen) == len(factories) and len(set(seen)) == 2
        job_ids = {report.statistics["events"][0]["job_id"] for report in reports}
        assert len(job_ids) == len(factories)

    def test_caller_profile_sees_the_check(self):
        import cProfile
        import pstats

        verifier = Verifier()
        profiler = cProfile.Profile()
        profiler.runcall(verifier.check, majority_protocol())
        functions = {name for _, _, name in pstats.Stats(profiler).stats}
        assert "verify_ws3_impl" in functions


class TestProtocolLoaders:
    """The spec loaders raise library exceptions, not SystemExit."""

    def test_family_spec(self):
        assert resolve_protocol_spec("broadcast").name == "broadcast"

    def test_parameterised_family_spec(self):
        protocol = resolve_protocol_spec("flock-of-birds:5")
        assert "5" in protocol.name

    def test_file_spec(self, tmp_path):
        from repro.io.serialization import protocol_to_json

        path = tmp_path / "p.json"
        path.write_text(protocol_to_json(broadcast_protocol()), encoding="utf-8")
        assert resolve_protocol_spec(str(path)).states == broadcast_protocol().states

    @pytest.mark.parametrize(
        "spec",
        [
            "no-such-family",
            "flock-of-birds:xyz",
            "flock-of-birds-threshold-n",
            "flock-of-birds:-3",
            "majority:5",
        ],
        ids=[
            "unknown",
            "bad-parameter",
            "missing-parameter",
            "out-of-range-parameter",
            "parameter-on-parameterless-family",
        ],
    )
    def test_bad_specs_raise_protocol_load_error(self, spec):
        with pytest.raises(ProtocolLoadError):
            resolve_protocol_spec(spec)

    def test_unreadable_file_raises_protocol_load_error(self, tmp_path):
        with pytest.raises(ProtocolLoadError, match="cannot read"):
            resolve_protocol_spec(str(tmp_path / "missing.json"))

    def test_invalid_json_raises_protocol_load_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProtocolLoadError, match="not a valid protocol"):
            resolve_protocol_spec(str(path))

    def test_load_error_is_a_protocol_error(self):
        from repro.protocols.protocol import ProtocolError

        assert issubclass(ProtocolLoadError, ProtocolError)
