"""Tests for the LayeredTermination checker and its partition-search strategies."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.protocols.protocol import OrderedPartition, PopulationProtocol, Transition
from repro.verification.layered_termination import (
    check_layered_termination_impl,
    check_partition,
    enabling_graph,
    find_ranking_function,
    layer_is_dead_for,
    layer_is_silent,
    scc_heuristic_partition,
    single_layer_partition,
    smt_partition_search,
)


@pytest.fixture
def majority_by_name(majority_protocol):
    return {t.name: t for t in majority_protocol.transitions}


def paper_partition(by_name):
    """The ordered partition from Example 5 of the paper."""
    return OrderedPartition.of(
        [by_name["tAB"], by_name["tAb"]],
        [by_name["tBa"], by_name["tba"]],
    )


class TestLayerSilence:
    def test_majority_full_set_is_not_silent(self, majority_protocol):
        assert not layer_is_silent(majority_protocol, majority_protocol.transitions)

    def test_majority_paper_layers_are_silent(self, majority_protocol, majority_by_name):
        assert layer_is_silent(majority_protocol, [majority_by_name["tAB"], majority_by_name["tAb"]])
        assert layer_is_silent(majority_protocol, [majority_by_name["tBa"], majority_by_name["tba"]])

    def test_empty_layer_is_silent(self, majority_protocol):
        assert layer_is_silent(majority_protocol, [])

    def test_broadcast_single_layer_is_silent(self, broadcast_protocol):
        assert layer_is_silent(broadcast_protocol, broadcast_protocol.transitions)

    def test_two_transition_cycle_is_not_silent(self):
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
        assert not layer_is_silent(protocol, protocol.transitions)
        assert layer_is_silent(protocol, protocol.transitions[:1])

    def test_ranking_function_certificate(self, majority_protocol, majority_by_name):
        layer = [majority_by_name["tAB"], majority_by_name["tAb"]]
        ranking = find_ranking_function(majority_protocol, layer)
        assert ranking is not None
        for transition in layer:
            drop = sum(
                ranking.get(state, 0) * (transition.post[state] - transition.pre[state])
                for state in transition.states()
            )
            assert drop < 0

    def test_no_ranking_function_for_cyclic_layer(self, majority_protocol):
        assert find_ranking_function(majority_protocol, majority_protocol.transitions) is None


class TestDeadness:
    def test_paper_partition_second_layer_is_dead_for_first(self, majority_protocol, majority_by_name):
        dead, witness = layer_is_dead_for(
            majority_protocol,
            [majority_by_name["tBa"], majority_by_name["tba"]],
            [majority_by_name["tAB"], majority_by_name["tAb"]],
        )
        assert dead and witness is None

    def test_reversed_partition_is_not_dead(self, majority_protocol, majority_by_name):
        dead, witness = layer_is_dead_for(
            majority_protocol,
            [majority_by_name["tAB"], majority_by_name["tAb"]],
            [majority_by_name["tBa"], majority_by_name["tba"]],
        )
        assert not dead
        assert witness is not None

    def test_empty_earlier_set_is_trivially_dead(self, majority_protocol):
        dead, _ = layer_is_dead_for(majority_protocol, majority_protocol.transitions, [])
        assert dead


class TestCheckPartition:
    def test_paper_partition_is_accepted(self, majority_protocol, majority_by_name):
        result = check_partition(majority_protocol, paper_partition(majority_by_name))
        assert result.holds
        assert result.certificate.num_layers == 2

    def test_partition_with_rankings(self, majority_protocol, majority_by_name):
        result = check_partition(
            majority_protocol, paper_partition(majority_by_name), materialize_rankings=True
        )
        assert result.holds
        assert all(layer.ranking is not None for layer in result.certificate.layers)

    def test_single_layer_partition_rejected_for_majority(self, majority_protocol):
        partition = OrderedPartition.of(majority_protocol.transitions)
        result = check_partition(majority_protocol, partition)
        assert not result.holds
        assert "condition (a)" in result.reason

    def test_reversed_partition_rejected(self, majority_protocol, majority_by_name):
        partition = OrderedPartition.of(
            [majority_by_name["tBa"], majority_by_name["tba"]],
            [majority_by_name["tAB"], majority_by_name["tAb"]],
        )
        result = check_partition(majority_protocol, partition)
        assert not result.holds
        assert "condition (b)" in result.reason

    def test_partition_must_cover_transitions(self, majority_protocol, majority_by_name):
        partition = OrderedPartition.of([majority_by_name["tAB"]])
        result = check_partition(majority_protocol, partition)
        assert not result.holds
        assert "cover" in result.reason


class TestSearchStrategies:
    def test_single_layer_strategy_for_broadcast(self, broadcast_protocol):
        partition = single_layer_partition(broadcast_protocol)
        assert partition is not None
        assert check_partition(broadcast_protocol, partition).holds

    def test_single_layer_strategy_fails_for_majority(self, majority_protocol):
        assert single_layer_partition(majority_protocol) is None

    def test_enabling_graph_edges(self, majority_protocol, majority_by_name):
        edges = enabling_graph(majority_protocol)
        # tAB produces a and b, which (together with a remaining A or B) can
        # newly enable tAb and tBa.
        assert majority_by_name["tAb"] in edges[majority_by_name["tAB"]]
        assert majority_by_name["tBa"] in edges[majority_by_name["tAB"]]

    def test_scc_heuristic_on_broadcast(self, broadcast_protocol):
        partition = scc_heuristic_partition(broadcast_protocol)
        assert partition is not None
        assert check_partition(broadcast_protocol, partition).holds

    def test_smt_search_finds_two_layers_for_majority(self, majority_protocol):
        partition = smt_partition_search(majority_protocol, max_layers=2)
        assert partition is not None
        result = check_partition(majority_protocol, partition)
        assert result.holds

    def test_smt_search_respects_layer_bound(self, majority_protocol):
        assert smt_partition_search(majority_protocol, max_layers=1) is None


class TestTopLevel:
    def test_auto_strategy_majority(self, majority_protocol):
        result = check_layered_termination_impl(majority_protocol)
        assert result.holds
        assert result.statistics["strategy"] in ("scc", "smt")

    def test_auto_strategy_broadcast(self, broadcast_protocol):
        result = check_layered_termination_impl(broadcast_protocol)
        assert result.holds
        assert result.certificate.num_layers <= 1

    def test_hint_strategy(self, majority_protocol, majority_by_name):
        protocol = PopulationProtocol(
            states=majority_protocol.states,
            transitions=majority_protocol.transitions,
            input_alphabet=majority_protocol.input_alphabet,
            input_map=majority_protocol.input_map,
            output_map=majority_protocol.output_map,
            name="majority(with hint)",
            partition_hint=paper_partition(majority_by_name),
        )
        result = check_layered_termination_impl(protocol, strategy="hint")
        assert result.holds
        assert result.statistics["strategy"] == "hint"

    def test_non_layered_protocol_rejected(self):
        # Two agents bouncing between p and q forever: not silent, so no
        # ordered partition can exist.
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
        result = check_layered_termination_impl(protocol)
        assert not result.holds

    def test_protocol_without_transitions(self):
        protocol = PopulationProtocol(
            states=["p"],
            transitions=[],
            input_alphabet=["p"],
            input_map={"p": "p"},
            output_map={"p": 1},
        )
        result = check_layered_termination_impl(protocol)
        assert result.holds
        assert result.certificate.num_layers == 0


_RECORD_RANKING_LPS = """
import json
import repro.smtlite.highs as highs
from repro.protocols import library
from repro.verification.layered_termination import check_layered_termination_impl

calls = []
solve_lp = highs.solve_lp

def recording(cost, columns, row_upper, col_lower, col_upper):
    calls.append([cost.tolist(), [part.tolist() for part in columns], row_upper.tolist()])
    return solve_lp(cost, columns, row_upper, col_lower, col_upper)

highs.solve_lp = recording
for protocol in (
    library.majority_protocol(),
    library.broadcast_protocol(),
    library.flock_of_birds_protocol(4),
    library.flock_of_birds_threshold_n_protocol(4),
    library.remainder_protocol([1], 3, 1),
    library.threshold_protocol([1], 2),
):
    check_layered_termination_impl(protocol, materialize_rankings=True)
print(json.dumps(calls))
"""


def test_ranking_lps_do_not_depend_on_the_hash_seed():
    """Layers are frozensets; the ranking LP must not follow their iteration order."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        completed = subprocess.run(
            [sys.executable, "-c", _RECORD_RANKING_LPS],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("[[")  # the LPs were recorded
