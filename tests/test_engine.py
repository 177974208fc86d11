"""Tests for the batch verification engine (scheduler, worker, envelopes).

The scheduler runs ``check-protocol`` subproblems — one whole protocol
each, the unit a batch sends to the pool.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import VerificationOptions, VerificationReport
from repro.datatypes.multiset import Multiset
from repro.engine import EngineError, Subproblem, VerificationEngine
from repro.engine.cache import protocol_content_hash
from repro.engine.subproblem import (
    KINDS,
    decode_consensus_counterexample,
    decode_partition,
    encode_consensus_counterexample,
    encode_partition,
)
from repro.io.serialization import protocol_to_dict
from repro.protocols.library import (
    broadcast_protocol,
    coin_flip_protocol,
    oscillating_majority_protocol,
)
from repro.protocols.protocol import OrderedPartition, Transition
from repro.verification.results import RefinementStep, StrongConsensusCounterexample


def _check_subproblems(*protocols, properties=("layered_termination",)):
    """One check-protocol subproblem per protocol, as a batch ships them."""
    options = VerificationOptions().to_dict()
    return [
        Subproblem(
            kind="check-protocol",
            index=index,
            protocol_key=protocol_content_hash(protocol),
            protocol_data=protocol_to_dict(protocol),
            params={"properties": list(properties), "options": options},
        )
        for index, protocol in enumerate(protocols)
    ]


class TestEnvelopes:
    def test_subproblem_rejects_unknown_kind(self, majority_protocol):
        with pytest.raises(ValueError):
            Subproblem(kind="nonsense", index=0, protocol_key="k", protocol_data={})

    def test_subproblems_pickle(self, majority_protocol):
        for subproblem in _check_subproblems(majority_protocol, coin_flip_protocol()):
            clone = pickle.loads(pickle.dumps(subproblem))
            assert clone.kind == subproblem.kind
            assert clone.protocol_key == subproblem.protocol_key
            assert clone.protocol_data == subproblem.protocol_data
            assert clone.params == subproblem.params

    def test_only_whole_protocol_kinds_exist(self):
        assert KINDS == ("check-protocol", "poison")

    def test_multiset_pickle_drops_cached_hash(self):
        multiset = Multiset({"a": 2, ("b", 1): 1})
        hash(multiset)  # populate the cache
        clone = pickle.loads(pickle.dumps(multiset))
        assert clone._hash is None
        assert clone == multiset
        assert hash(clone) == hash(multiset)  # same process, same seed

    def test_refinement_steps_pickle(self):
        step = RefinementStep(kind="trap", states=frozenset({"a", ("b", 2)}), iteration=3)
        clone = pickle.loads(pickle.dumps(step))
        assert clone.kind == step.kind
        assert clone.states == step.states

    def test_counterexample_round_trip(self):
        transition = Transition.make(("a", "b"), ("b", "b"))
        counterexample = StrongConsensusCounterexample(
            initial=Multiset({"a": 3}),
            terminal_true=Multiset({"b": 3}),
            terminal_false=Multiset({"a": 1, "b": 2}),
            flow_true={transition: 2},
            flow_false={},
        )
        clone = decode_consensus_counterexample(
            encode_consensus_counterexample(counterexample)
        )
        assert clone.initial == counterexample.initial
        assert clone.terminal_true == counterexample.terminal_true
        assert clone.terminal_false == counterexample.terminal_false
        assert clone.flow_true == counterexample.flow_true
        assert clone.flow_false == counterexample.flow_false

    def test_partition_round_trip(self):
        first = Transition.make(("a", "b"), ("b", "b"))
        second = Transition.make(("b", "c"), ("c", "c"))
        partition = OrderedPartition.of([first], [second])
        clone = decode_partition(encode_partition(partition))
        assert clone == partition


class TestSchedulerSerial:
    """jobs=1 solves everything inline: no pool, no pickling."""

    def test_inline_results_in_input_order(self, majority_protocol):
        engine = VerificationEngine(jobs=1)
        subproblems = _check_subproblems(
            majority_protocol, oscillating_majority_protocol(), broadcast_protocol()
        )
        results = engine.run_wave(subproblems)
        assert [r.index for r in results] == [s.index for s in subproblems]
        assert [r.verdict for r in results] == ["holds", "fails", "holds"]
        assert engine._executor is None

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            VerificationEngine(jobs=0)


class TestSchedulerParallel:
    def test_pool_results_in_input_order(self, majority_protocol):
        subproblems = _check_subproblems(
            majority_protocol, oscillating_majority_protocol(), broadcast_protocol()
        )
        with VerificationEngine(jobs=2) as engine:
            results = engine.run_wave(subproblems)
        assert [r.index for r in results] == [s.index for s in subproblems]
        assert [r.verdict for r in results] == ["holds", "fails", "holds"]
        reports = [VerificationReport.from_dict(r.data["report"]) for r in results]
        assert [report.protocol_hash for report in reports] == [
            s.protocol_key for s in subproblems
        ]

    def test_poisoned_worker_raises_clean_error(self):
        """A worker dying mid-subproblem is an EngineError, not a hang."""
        with VerificationEngine(jobs=2, wave_timeout=60) as engine:
            poison = Subproblem(kind="poison", index=0, protocol_key="k", protocol_data={})
            with pytest.raises(EngineError, match="worker process died"):
                engine.run_wave([poison])

    def test_engine_usable_again_after_worker_death(self, majority_protocol):
        with VerificationEngine(jobs=2, wave_timeout=60) as engine:
            poison = Subproblem(kind="poison", index=0, protocol_key="k", protocol_data={})
            with pytest.raises(EngineError):
                engine.run_wave([poison])
            results = engine.run_wave(_check_subproblems(majority_protocol))
            assert results[0].verdict == "holds"
            assert engine.statistics["worker_deaths"] == 1

    def test_worker_exception_propagates(self):
        with VerificationEngine(jobs=2, wave_timeout=60) as engine:
            bad = Subproblem(
                kind="poison", index=0, protocol_key="k", protocol_data={}, params={"mode": "raise"}
            )
            with pytest.raises(RuntimeError, match="poisoned subproblem"):
                engine.run_wave([bad])
