"""Tests for the batch front end (``Verifier.check_many``, result cache).

The parity tests pin the one-path design: a batch on two workers (one
``check-protocol`` subproblem per protocol) returns the same reports —
verdicts, certificates, refinement lists and counterexamples — as the same
batch on one process, because each worker runs the same serial check.
"""

from __future__ import annotations

import pytest

from repro.api import Verifier
from repro.engine import ResultCache
from repro.protocols.library import (
    broadcast_protocol,
    coin_flip_protocol,
    exclusive_majority_protocol,
    flock_of_birds_protocol,
    flock_of_birds_threshold_n_protocol,
    majority_protocol,
    oscillating_majority_protocol,
    remainder_protocol,
    threshold_protocol,
)


def check_many(protocols, cache=None, **options):
    """One batch on a fresh session (``Verifier(**options).check_many``)."""
    with Verifier(cache=cache, **options) as verifier:
        return verifier.check_many(protocols)


class TestVerifyMany:
    def test_serial_batch_verdicts(self):
        batch = check_many([majority_protocol(), coin_flip_protocol()])
        assert [item.is_ws3 for item in batch] == [True, False]
        assert batch.statistics["verified"] == 2
        assert not batch.all_ws3

    def test_parallel_batch_matches_serial(self):
        protocols = [majority_protocol(), broadcast_protocol(), coin_flip_protocol()]
        serial = check_many(protocols)
        parallel = check_many([p for p in protocols], jobs=3)
        assert [item.is_ws3 for item in parallel] == [item.is_ws3 for item in serial]
        assert [item.protocol_hash for item in parallel] == [
            item.protocol_hash for item in serial
        ]
        for serial_item, parallel_item in zip(serial, parallel):
            serial_sc = serial_item.report.result_for("strong_consensus")
            parallel_sc = parallel_item.report.result_for("strong_consensus")
            assert serial_sc.verdict == parallel_sc.verdict
            assert serial_sc.counterexample == parallel_sc.counterexample

    def test_second_run_is_served_from_cache(self, tmp_path):
        protocols = [majority_protocol(), broadcast_protocol()]
        cold = check_many(protocols, cache_dir=str(tmp_path))
        assert cold.statistics["cache"] == {"hits": 0, "misses": 2, "stores": 2}
        assert not any(item.from_cache for item in cold)

        warm = check_many(protocols, cache_dir=str(tmp_path))
        assert warm.statistics["cache"]["hits"] == 2
        assert warm.statistics["verified"] == 0
        assert all(item.from_cache for item in warm)
        assert [item.report for item in warm] == [item.report for item in cold]
        # the warm run does no solving, so it is effectively instant
        assert warm.statistics["time"] < 0.5

    def test_duplicate_protocols_verified_once(self):
        batch = check_many([broadcast_protocol(), broadcast_protocol()])
        assert batch.statistics["verified"] == 1
        assert batch.statistics["duplicates"] == 1
        assert batch.items[0].report == batch.items[1].report

    def test_shared_cache_object(self, tmp_path):
        cache = ResultCache(tmp_path)
        check_many([broadcast_protocol()], cache=cache)
        batch = check_many([broadcast_protocol()], cache=cache)
        # The batch's own lookups, not the shared cache's lifetime counts
        # (which include the first batch's miss).
        assert batch.statistics["cache"] == {"hits": 1, "misses": 0, "stores": 0}
        assert batch.items[0].from_cache


# ----------------------------------------------------------------------
# Batch parity: jobs=2 (one protocol per worker) must equal jobs=1
# ----------------------------------------------------------------------

PARITY_FAMILIES = [
    ("majority", majority_protocol),
    ("broadcast", broadcast_protocol),
    ("flock-of-birds-4", lambda: flock_of_birds_protocol(4)),
    ("flock-of-birds-threshold-n-5", lambda: flock_of_birds_threshold_n_protocol(5)),
    ("remainder-3", lambda: remainder_protocol([1], 3, 1)),
    ("threshold", lambda: threshold_protocol([1, -1], 0)),
    ("exclusive-majority", exclusive_majority_protocol),
    ("coin-flip", coin_flip_protocol),
    ("oscillating-majority", oscillating_majority_protocol),
]
PARITY_IDS = [name for name, _ in PARITY_FAMILIES]


def _without_statistics(payload):
    """A report dictionary minus timings and counters (verdicts and artifacts stay)."""
    if isinstance(payload, dict):
        return {
            key: _without_statistics(value)
            for key, value in payload.items()
            if key not in ("statistics", "options")
        }
    if isinstance(payload, list):
        return [_without_statistics(value) for value in payload]
    return payload


def _batch_reports(jobs: int, protocols, properties) -> list[dict]:
    with Verifier(jobs=jobs) as verifier:
        batch = verifier.check_many(protocols, properties=properties)
    return [_without_statistics(item.report.to_dict()) for item in batch]


@pytest.fixture(scope="module")
def ws3_batches():
    """One jobs=1 and one jobs=2 batch over every parity family."""
    protocols = [factory() for _, factory in PARITY_FAMILIES]
    return _batch_reports(1, protocols, ["ws3"]), _batch_reports(2, protocols, ["ws3"])


class TestBatchParity:
    @pytest.mark.parametrize("position", range(len(PARITY_FAMILIES)), ids=PARITY_IDS)
    def test_ws3_reports_match(self, ws3_batches, position):
        """Verdicts, certificates, refinement lists and counterexamples agree."""
        serial, parallel = ws3_batches
        assert parallel[position] == serial[position]

    def test_parity_covers_both_failure_modes(self, ws3_batches):
        serial, _ = ws3_batches
        verdicts = {
            name: {part["property"]: part["verdict"] for part in report["properties"][0]["parts"]}
            for name, report in zip(PARITY_IDS, serial)
        }
        assert verdicts["coin-flip"]["strong_consensus"] == "fails"
        assert verdicts["oscillating-majority"]["layered_termination"] == "fails"
        consensus = serial[PARITY_IDS.index("coin-flip")]["properties"][0]["parts"][1]
        assert consensus["counterexample"] is not None


class TestSingleCheckIsSerial:
    def test_jobs_do_not_start_a_pool_for_one_check(self):
        """``jobs`` sizes the batch pool only; a single check never starts one."""
        protocol = coin_flip_protocol()
        with Verifier(jobs=2) as verifier:
            parallel = verifier.check(protocol, properties=["ws3"])
            assert verifier.engine is None
        with Verifier(jobs=1) as verifier:
            serial = verifier.check(protocol, properties=["ws3"])
        assert _without_statistics(parallel.to_dict()) == _without_statistics(serial.to_dict())
        assert parallel.statistics["jobs"] == serial.statistics["jobs"] == 1
