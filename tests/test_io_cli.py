"""Tests for JSON serialisation and the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.io.serialization import (
    protocol_from_dict,
    protocol_from_json,
    protocol_to_dict,
    protocol_to_json,
)
from repro.protocols.library import majority_protocol, threshold_protocol


class TestSerialization:
    def test_round_trip_simple_protocol(self, majority_protocol):
        data = protocol_to_json(majority_protocol)
        restored = protocol_from_json(data)
        assert restored.states == majority_protocol.states
        assert set(restored.transitions) == set(majority_protocol.transitions)
        assert restored.input_map == majority_protocol.input_map
        assert restored.output_map == majority_protocol.output_map

    def test_round_trip_with_tuple_states_and_hint(self):
        protocol = threshold_protocol({"x": 1, "y": -1}, 1)
        restored = protocol_from_json(protocol_to_json(protocol))
        assert restored.states == protocol.states
        assert set(restored.transitions) == set(protocol.transitions)
        assert restored.partition_hint is not None
        assert restored.partition_hint.covers(restored.transitions)

    def test_round_trip_library_majority_hint(self):
        protocol = majority_protocol()
        restored = protocol_from_dict(protocol_to_dict(protocol))
        assert restored.partition_hint is not None
        assert len(restored.partition_hint) == len(protocol.partition_hint)

    def test_json_is_deterministic(self, majority_protocol):
        assert protocol_to_json(majority_protocol) == protocol_to_json(majority_protocol)

    def test_dict_contains_expected_keys(self, majority_protocol):
        data = protocol_to_dict(majority_protocol)
        assert {"states", "transitions", "input_alphabet", "input_map", "output_map"} <= set(data)


class TestCLI:
    def test_list_families(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "majority" in output
        assert "flock-of-birds" in output

    def test_verify_majority_family(self, capsys):
        exit_code = main(["family", "majority", "--simulate", "A=2,B=3"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "WS3 membership check" in output
        assert "simulation of A=2,B=3" in output

    def test_verify_family_json_output_is_a_lossless_report(self, capsys):
        from repro.api import VerificationReport

        exit_code = main(["family", "broadcast", "--json"])
        raw = capsys.readouterr().out
        payload = json.loads(raw)
        assert exit_code == 0
        assert payload["protocol"] == "broadcast"
        assert payload["schema"].startswith("repro-verification-report/")
        report = VerificationReport.from_json(raw)
        assert report.is_ws3
        assert report.holds("layered_termination")
        assert report.result_for("layered_termination").certificate is not None

    def test_verify_family_with_parameter_and_correctness(self, capsys):
        exit_code = main(
            ["family", "flock-of-birds", "--parameter", "3", "--check-correctness", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        correctness = [p for p in payload["properties"] if p["property"] == "correctness"]
        assert correctness and correctness[0]["verdict"] == "holds"

    def test_verify_single_property_selection(self, capsys):
        exit_code = main(["family", "broadcast", "--property", "layered_termination", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert [p["property"] for p in payload["properties"]] == ["layered_termination"]

    def test_verify_protocol_from_file(self, tmp_path, capsys, majority_protocol):
        path = tmp_path / "majority.json"
        path.write_text(protocol_to_json(majority_protocol), encoding="utf-8")
        exit_code = main(["file", str(path)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "LayeredTermination" in output

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["family", "does-not-exist"])

    def test_verify_family_with_jobs(self, capsys):
        """``--jobs`` sizes batch pools only; a single check rejects it."""
        with pytest.raises(SystemExit):
            main(["family", "broadcast", "--jobs", "2"])
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


class TestBatchCLI:
    def test_batch_mixed_specs_and_exit_code(self, tmp_path, capsys, majority_protocol):
        path = tmp_path / "majority.json"
        path.write_text(protocol_to_json(majority_protocol), encoding="utf-8")
        exit_code = main(
            ["batch", "broadcast", str(path), "--cache-dir", str(tmp_path / "cache")]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "broadcast" in output
        assert "2 verified, 0 cache hit(s)" in output

    def test_batch_second_run_is_served_from_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", "broadcast", "majority", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["batch", "broadcast", "majority", "--cache-dir", cache_dir]) == 0
        output = capsys.readouterr().out
        assert "0 verified, 2 cache hit(s)" in output
        assert output.count("[cache]") == 2

    def test_batch_json_output_with_jobs(self, tmp_path, capsys):
        exit_code = main(
            [
                "batch",
                "broadcast",
                "--jobs",
                "2",
                "--json",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["statistics"]["jobs"] == 2
        assert payload["protocols"][0]["is_ws3"] is True
        assert len(payload["protocols"][0]["hash"]) == 64

    def test_batch_failing_protocol_sets_exit_code(self, tmp_path, capsys):
        from repro.protocols.library import coin_flip_protocol

        path = tmp_path / "coin.json"
        path.write_text(protocol_to_json(coin_flip_protocol()), encoding="utf-8")
        exit_code = main(["batch", "broadcast", str(path), "--no-cache"])
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "NOT PROVEN" in output

    def test_batch_unknown_spec_sets_loader_exit_code(self, capsys):
        exit_code = main(["batch", "no-such-family-or-file", "--no-cache"])
        assert exit_code == 2
        assert "unknown protocol family or file" in capsys.readouterr().err


class TestObservabilityCLI:
    def test_trace_flag_writes_single_rooted_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "out.json"
        exit_code = main(
            [
                "batch",
                "majority",
                "broadcast",
                "--jobs",
                "2",
                "--no-cache",
                "--trace",
                str(trace_path),
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        json.loads(captured.out)  # --json stdout stays machine-parseable
        assert "span(s) written" in captured.err

        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        events = payload["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
        ids = {event["args"]["span_id"] for event in events}
        roots = [event for event in events if event["args"]["parent_id"] not in ids]
        assert len(roots) == 1 and roots[0]["name"] == "batch"
        names = {event["name"] for event in events}
        assert {"batch", "job", "property", "engine.wave", "subproblem"} <= names
        engine_pids = {
            event["pid"] for event in events if event["name"] in ("engine.wave", "subproblem")
        }
        assert len(engine_pids) >= 2

    def test_trace_subcommand_pretty_prints(self, tmp_path, capsys):
        trace_path = tmp_path / "out.json"
        assert main(["family", "broadcast", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace_path), "--top", "5"]) == 0
        output = capsys.readouterr().out
        assert "1 root(s)" in output
        assert "property" in output  # hottest spans by self-time

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "not-a-trace.json"
        path.write_text("{}", encoding="utf-8")
        assert main(["trace", str(path)]) == 2
        assert "no repro spans" in capsys.readouterr().err

    def test_profile_flag_reports_to_stderr_only(self, capsys):
        exit_code = main(["family", "broadcast", "--profile", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert "profile" in payload["statistics"]
        assert "profile: phase" in captured.err

    def test_progress_lines_go_to_stderr_not_stdout(self, capsys):
        # Regression for the satellite fix: --progress chatter must never
        # interleave with --json stdout.
        exit_code = main(["family", "broadcast", "--progress", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        json.loads(captured.out)  # one clean JSON document
        assert "job_queued" in captured.err or "queued" in captured.err
