"""Parallel vs. serial parity for correctness batches and shared engines.

Parallelism is per protocol: a batch on two workers sends one
``check-protocol`` subproblem per protocol, and each worker runs the same
serial check as ``jobs=1``.  So a parallel correctness batch must return the
same reports — verdicts, refinement lists and counterexamples — as the
serial one, and a caller-owned engine keeps its pool across batches.
"""

from __future__ import annotations

from repro.api import Verifier
from repro.engine import VerificationEngine
from repro.protocols.library import (
    broadcast_protocol,
    coin_flip_protocol,
    flock_of_birds_protocol,
    majority_protocol,
)

JOBS = 2


def _with_predicate(protocol, predicate):
    protocol.metadata = dict(protocol.metadata)
    protocol.metadata["predicate"] = predicate
    return protocol


def _correctness_batch(jobs: int, protocols) -> list:
    with Verifier(jobs=jobs) as verifier:
        batch = verifier.check_many(protocols, properties=["correctness"])
    return [item.report.properties[0] for item in batch]


class TestCorrectnessParity:
    def test_majority_predicate_parity(self):
        protocols = [majority_protocol(), flock_of_birds_protocol(3)]
        serial = _correctness_batch(1, protocols)
        parallel = _correctness_batch(JOBS, protocols)
        for serial_result, parallel_result in zip(serial, parallel):
            assert serial_result.holds
            assert parallel_result.holds == serial_result.holds
            assert [(s.kind, s.states) for s in parallel_result.refinements] == [
                (s.kind, s.states) for s in serial_result.refinements
            ]

    def test_wrong_predicate_counterexample_parity(self):
        protocols = [
            _with_predicate(majority_protocol(), ~majority_protocol().metadata["predicate"]),
            _with_predicate(broadcast_protocol(), ~broadcast_protocol().metadata["predicate"]),
        ]
        serial = _correctness_batch(1, protocols)
        parallel = _correctness_batch(JOBS, protocols)
        for serial_result, parallel_result in zip(serial, parallel):
            assert not serial_result.holds and not parallel_result.holds
            assert serial_result.counterexample is not None
            assert parallel_result.counterexample is not None
            assert (
                parallel_result.counterexample.input_population
                == serial_result.counterexample.input_population
            )
            assert parallel_result.counterexample.terminal == serial_result.counterexample.terminal
            assert (
                parallel_result.counterexample.expected_output
                == serial_result.counterexample.expected_output
            )


class TestSharedEngine:
    def test_one_engine_across_many_checks(self):
        """A caller-owned engine is reused (its pool survives across batches)."""
        with VerificationEngine(jobs=JOBS) as engine:
            verifier = Verifier(engine=engine)
            first = verifier.check_many([majority_protocol(), broadcast_protocol()])
            pool = engine._executor
            second = verifier.check_many([coin_flip_protocol(), flock_of_birds_protocol(3)])
            assert pool is not None and engine._executor is pool
            verifier.close()
            # the session does not own the engine, so closing it keeps the pool
            assert engine._executor is pool
        assert engine._executor is None
        assert [item.report.is_ws3 for item in first] == [True, True]
        assert [item.report.is_ws3 for item in second] == [False, True]
        assert engine.statistics["subproblems"] >= 4
