"""Property-based tests on randomly generated population protocols.

These check the paper's basic structural facts on arbitrary (small, random)
protocols rather than on the hand-written families:

* interactions preserve the number of agents;
* the flow equations (Equation 1) hold along every real execution;
* a marked trap stays marked and an empty siphon stays empty along every
  real execution (Observation 11);
* potential reachability over-approximates real reachability;
* every configuration reached by simulation of a silent protocol and
  declared terminal really is terminal;
* the two StrongConsensus encodings (terminal-pattern pairs and the paper's
  monolithic system) and both theory solvers give the same verdict.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes.multiset import Multiset
from repro.protocols.protocol import PopulationProtocol, Transition
from repro.protocols.semantics import enabled_transitions, is_terminal
from repro.protocols.simulation import Simulator
from repro.verification.flow import (
    PotentialReachabilityWitness,
    check_potential_reachability,
    flow_from_transition_sequence,
    satisfies_flow_equations,
)
from repro.petri.traps_siphons import is_siphon, is_trap
from repro.verification.strong_consensus import check_strong_consensus_impl


@st.composite
def random_protocols(draw):
    """A small random protocol together with a random initial configuration."""
    num_states = draw(st.integers(min_value=2, max_value=4))
    states = [f"q{i}" for i in range(num_states)]
    num_transitions = draw(st.integers(min_value=1, max_value=5))
    transitions = []
    for index in range(num_transitions):
        pre = draw(st.tuples(st.sampled_from(states), st.sampled_from(states)))
        post = draw(st.tuples(st.sampled_from(states), st.sampled_from(states)))
        transitions.append(Transition.make(pre, post, name=f"t{index}"))
    outputs = {state: draw(st.sampled_from([0, 1])) for state in states}
    protocol = PopulationProtocol(
        states=states,
        transitions=transitions,
        input_alphabet=states,
        input_map={state: state for state in states},
        output_map=outputs,
        name="random",
    )
    counts = {
        state: draw(st.integers(min_value=0, max_value=3)) for state in states
    }
    total = sum(counts.values())
    if total < 2:
        counts[states[0]] = counts.get(states[0], 0) + (2 - total)
    return protocol, Multiset({s: c for s, c in counts.items() if c > 0})


def random_walk(protocol, configuration, steps, seed):
    """A random sequence of real steps from the configuration."""
    rng = random.Random(seed)
    sequence = []
    current = configuration
    for _ in range(steps):
        enabled = enabled_transitions(protocol, current)
        if not enabled:
            break
        transition = rng.choice(enabled)
        sequence.append(transition)
        current = transition.fire(current)
    return sequence, current


class TestRandomProtocolInvariants:
    @given(random_protocols(), st.integers(min_value=0, max_value=8), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_agent_count_preserved(self, data, steps, seed):
        protocol, configuration = data
        _, final = random_walk(protocol, configuration, steps, seed)
        assert final.size() == configuration.size()

    @given(random_protocols(), st.integers(min_value=0, max_value=8), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_flow_equations_hold_along_executions(self, data, steps, seed):
        protocol, configuration = data
        sequence, final = random_walk(protocol, configuration, steps, seed)
        flow = flow_from_transition_sequence(sequence)
        assert satisfies_flow_equations(configuration, final, flow)

    @given(random_protocols(), st.integers(min_value=0, max_value=8), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_potential_reachability_over_approximates(self, data, steps, seed):
        protocol, configuration = data
        sequence, final = random_walk(protocol, configuration, steps, seed)
        witness = PotentialReachabilityWitness(
            source=configuration, target=final, flow=flow_from_transition_sequence(sequence)
        )
        ok, reason = check_potential_reachability(protocol, witness)
        assert ok, reason

    @given(random_protocols(), st.integers(min_value=0, max_value=8), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_traps_stay_marked_and_siphons_stay_empty(self, data, steps, seed):
        protocol, configuration = data
        sequence, final = random_walk(protocol, configuration, steps, seed)
        states = sorted(protocol.states)
        # Try a few candidate subsets for trap/siphon behaviour.
        for size in (1, 2):
            for start in range(len(states) - size + 1):
                subset = set(states[start : start + size])
                if is_trap(protocol, subset, protocol.transitions) and configuration.total(subset) > 0:
                    assert final.total(subset) > 0
                if is_siphon(protocol, subset, protocol.transitions) and configuration.total(subset) == 0:
                    assert final.total(subset) == 0

    @given(random_protocols(), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_simulation_final_configuration_is_terminal_when_converged(self, data, seed):
        protocol, configuration = data
        simulator = Simulator(protocol, seed=seed, max_steps=300)
        result = simulator.run(configuration=configuration)
        if result.converged:
            assert is_terminal(protocol, result.final)
        assert result.final.size() == configuration.size()


class TestEncodingsAgree:
    @given(random_protocols())
    @settings(max_examples=60, deadline=None)
    def test_strong_consensus_verdict_is_encoding_independent(self, data):
        protocol, _configuration = data
        verdicts = {
            (strategy, theory): check_strong_consensus_impl(
                protocol, theory=theory, strategy=strategy
            ).holds
            for strategy, theory in (
                ("patterns", "auto"),
                ("monolithic", "auto"),
                ("patterns", "exact"),
            )
        }
        assert len(set(verdicts.values())) == 1, verdicts
