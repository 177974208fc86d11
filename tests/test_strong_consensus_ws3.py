"""Tests for StrongConsensus, the WS3 membership check and the correctness check."""

from __future__ import annotations

import pytest

from repro.datatypes.multiset import Multiset
from repro.protocols.protocol import PopulationProtocol, Transition
from repro.smtlite.formula import Formula
from repro.verification.correctness import check_correctness_impl
from repro.verification.explicit import (
    check_predicate_on_inputs,
    verify_inputs_up_to,
    verify_single_input,
)
from repro.verification.flow import PotentialReachabilityWitness, check_potential_reachability
from repro.verification.strong_consensus import check_strong_consensus_impl, find_refinement
from repro.verification.ws3 import verify_ws3_impl


def coin_flip_protocol() -> PopulationProtocol:
    """A protocol that is *not* well-specified: two agents can agree on either value."""
    return PopulationProtocol(
        states=["x", "yes", "no"],
        transitions=[
            Transition.make(("x", "x"), ("yes", "yes")),
            Transition.make(("x", "x"), ("no", "no")),
            Transition.make(("yes", "no"), ("yes", "yes")),
        ],
        input_alphabet=["x"],
        input_map={"x": "x"},
        output_map={"x": 0, "yes": 1, "no": 0},
        name="coin-flip",
    )


class MajorityPredicate:
    """The predicate computed by the majority protocol: #B >= #A."""

    def formula(self, input_vars) -> Formula:
        return input_vars["B"] - input_vars["A"] >= 0

    def negation_formula(self, input_vars) -> Formula:
        return input_vars["B"] - input_vars["A"] <= -1

    def evaluate(self, input_population) -> bool:
        return input_population["B"] >= input_population["A"]


class WrongMajorityPredicate(MajorityPredicate):
    """Deliberately wrong: strict majority of B (differs on ties)."""

    def formula(self, input_vars) -> Formula:
        return input_vars["B"] - input_vars["A"] >= 1

    def negation_formula(self, input_vars) -> Formula:
        return input_vars["B"] - input_vars["A"] <= 0

    def evaluate(self, input_population) -> bool:
        return input_population["B"] > input_population["A"]


@pytest.mark.parametrize("theory", ["auto", "exact"])
class TestStrongConsensus:
    def test_majority_satisfies_strong_consensus(self, majority_protocol, theory):
        result = check_strong_consensus_impl(majority_protocol, theory=theory)
        assert result.holds
        assert result.statistics["iterations"] >= 1

    def test_broadcast_satisfies_strong_consensus(self, broadcast_protocol, theory):
        result = check_strong_consensus_impl(broadcast_protocol, theory=theory)
        assert result.holds

    def test_coin_flip_violates_strong_consensus(self, theory):
        result = check_strong_consensus_impl(coin_flip_protocol(), theory=theory)
        assert not result.holds
        assert result.counterexample is not None
        ce = result.counterexample
        # The counterexample must be a genuine potential-reachability witness
        # for both branches and exhibit disagreeing outputs.
        protocol = coin_flip_protocol()
        ok_true, _ = check_potential_reachability(
            protocol,
            PotentialReachabilityWitness(ce.initial, ce.terminal_true, ce.flow_true),
        )
        ok_false, _ = check_potential_reachability(
            protocol,
            PotentialReachabilityWitness(ce.initial, ce.terminal_false, ce.flow_false),
        )
        assert ok_true and ok_false
        assert "yes" in ce.terminal_true.support()
        assert set(ce.terminal_false.support()) & {"no", "x"}


class TestRefinementMechanics:
    def test_majority_refinement_found_for_spurious_model(self, majority_protocol):
        by_name = {t.name: t for t in majority_protocol.transitions}
        # The spurious witness of Example 9/13: traps rule it out.
        step = find_refinement(
            majority_protocol,
            Multiset({"A": 1, "B": 1}),
            Multiset({"a": 2}),
            {by_name["tAB"]: 1, by_name["tAb"]: 1},
        )
        assert step is not None
        assert step.kind in ("trap", "siphon")

    def test_no_refinement_for_genuine_execution(self, majority_protocol):
        by_name = {t.name: t for t in majority_protocol.transitions}
        source = Multiset({"A": 1, "B": 2})
        flow = {by_name["tAB"]: 1, by_name["tBa"]: 1}
        target = Multiset({"B": 1, "b": 2})
        assert find_refinement(majority_protocol, source, target, flow) is None


class TestWS3:
    def test_majority_is_ws3(self, majority_protocol):
        result = verify_ws3_impl(majority_protocol)
        assert result.is_ws3
        assert result.is_well_specified
        assert result.layered_termination.holds
        assert result.strong_consensus.holds
        assert "LayeredTermination" in result.summary()

    def test_broadcast_is_ws3(self, broadcast_protocol):
        assert verify_ws3_impl(broadcast_protocol).is_ws3

    def test_coin_flip_is_not_ws3(self):
        result = verify_ws3_impl(coin_flip_protocol(), check_consensus_first=True)
        assert not result.is_ws3
        assert not result.strong_consensus.holds

    def test_non_silent_protocol_is_not_ws3(self):
        protocol = PopulationProtocol(
            states=["p", "q"],
            transitions=[
                Transition.make(("p", "p"), ("q", "q")),
                Transition.make(("q", "q"), ("p", "p")),
            ],
            input_alphabet=["p"],
            input_map={"p": "p"},
            output_map={"p": 1, "q": 1},
        )
        result = verify_ws3_impl(protocol)
        assert not result.is_ws3
        assert not result.layered_termination.holds
        # StrongConsensus is skipped when LayeredTermination already failed.
        assert result.strong_consensus is None

    def test_statistics_fields(self, majority_protocol):
        result = verify_ws3_impl(majority_protocol)
        assert result.statistics["num_states"] == 4
        assert result.statistics["num_transitions"] == 4
        assert result.statistics["time"] > 0


class TestCorrectness:
    def test_majority_computes_its_predicate(self, majority_protocol):
        result = check_correctness_impl(majority_protocol, MajorityPredicate())
        assert result.holds

    def test_majority_does_not_compute_strict_majority(self, majority_protocol):
        result = check_correctness_impl(majority_protocol, WrongMajorityPredicate())
        assert not result.holds
        assert result.counterexample is not None
        ce = result.counterexample
        # The counterexample should be a tie (where the two predicates differ).
        assert ce.input_population["A"] == ce.input_population["B"]

    def test_correctness_agrees_with_explicit_enumeration(self, majority_protocol):
        ok, mismatches = check_predicate_on_inputs(majority_protocol, MajorityPredicate(), max_size=4)
        assert ok, mismatches


class TestExplicitBaseline:
    def test_majority_single_inputs(self, majority_protocol):
        result = verify_single_input(majority_protocol, {"A": 2, "B": 3})
        assert result.well_specified
        assert result.output == 1
        result = verify_single_input(majority_protocol, {"A": 3, "B": 2})
        assert result.well_specified
        assert result.output == 0
        result = verify_single_input(majority_protocol, {"A": 2, "B": 2})
        assert result.well_specified
        assert result.output == 1

    def test_coin_flip_single_input_not_well_specified(self):
        result = verify_single_input(coin_flip_protocol(), {"x": 2})
        assert not result.well_specified

    def test_sweep_all_small_inputs(self, majority_protocol):
        sweep = verify_inputs_up_to(majority_protocol, max_size=4)
        assert sweep.all_well_specified
        assert len(sweep.results) == 3 + 4 + 5
        assert sweep.total_configurations > 0
        outputs = sweep.outputs()
        assert outputs[Multiset({"A": 1, "B": 2})] == 1
        assert outputs[Multiset({"A": 3, "B": 1})] == 0

    def test_truncated_exploration_reported(self, majority_protocol):
        result = verify_single_input(majority_protocol, {"A": 6, "B": 6}, max_configurations=5)
        assert not result.well_specified
        assert "truncated" in result.reason
