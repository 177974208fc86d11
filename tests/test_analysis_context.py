"""Tests for the shared per-protocol AnalysisContext.

The central guarantee: a Verifier session verifying all WS³ sub-properties
of one protocol computes each shared structural artifact — terminal
patterns, the trap/siphon basis, the normal form — at most once.
"""

from __future__ import annotations

import importlib
import sys
import warnings

from repro.api import Verifier
from repro.constraints.context import AnalysisContext
from repro.protocols.library import majority_protocol, remainder_protocol


class TestLaziness:
    def test_nothing_computed_up_front(self):
        context = AnalysisContext(majority_protocol())
        assert context.computes == {}

    def test_each_artifact_computed_once(self):
        context = AnalysisContext(majority_protocol())
        for _ in range(3):
            context.terminal_patterns
            context.transition_supports
            context.builder
            context.normal_form
            context.enabling_graph
            context.lemma22_witnesses
            context.protocol_key
        assert context.computes == {
            "terminal_patterns": 1,
            "trap_siphon_basis": 1,
            "builder": 1,
            "state_deltas": 1,  # dependency of the builder
            "petri_net": 1,  # dependency of the normal form
            "normal_form": 1,
            "enabling_graph": 1,
            "lemma22_witnesses": 1,
            "protocol_key": 1,
        }

    def test_trap_siphon_basis_matches_transitions(self):
        protocol = majority_protocol()
        supports = AnalysisContext(protocol).transition_supports
        assert set(supports) == set(protocol.transitions)
        for transition, (pre_support, post_support) in supports.items():
            assert pre_support == frozenset(transition.pre.support())
            assert post_support == frozenset(transition.post.support())


class TestSessionSharing:
    def test_all_ws3_subproperties_compute_artifacts_at_most_once(self):
        """The ISSUE's counting guarantee, across several check() calls."""
        protocol = remainder_protocol([1], 3, 1)
        with Verifier() as verifier:
            verifier.check(protocol, properties=["ws3"])
            verifier.check(protocol, properties=["strong_consensus"])
            verifier.check(protocol, properties=["layered_termination", "correctness"])
            context = verifier.analysis_context(protocol)
        assert context.computes.get("terminal_patterns", 0) == 1
        assert context.computes.get("trap_siphon_basis", 0) <= 1
        assert context.computes.get("normal_form", 0) <= 1
        assert context.computes.get("builder", 0) == 1
        assert all(count <= 1 for count in context.computes.values()), context.computes
        # The content hash was seeded by the session, never recomputed.
        assert context.computes.get("protocol_key", 0) == 0

    def test_context_is_per_protocol(self):
        first, second = majority_protocol(), remainder_protocol([1], 3, 1)
        with Verifier() as verifier:
            assert verifier.analysis_context(first) is verifier.analysis_context(first)
            assert verifier.analysis_context(first) is not verifier.analysis_context(second)

    def test_equal_protocols_share_one_context(self):
        with Verifier() as verifier:
            context_a = verifier.analysis_context(majority_protocol())
            context_b = verifier.analysis_context(majority_protocol())
            assert context_a is context_b  # same content hash


class TestLinearArtifacts:
    """Place invariants and the flow-equation basis (ISSUE 5 satellite)."""

    def test_state_deltas_match_the_transition_effects(self):
        protocol = majority_protocol()
        rows = AnalysisContext(protocol).state_deltas
        assert set(rows) == set(protocol.states)
        for state, entries in rows.items():
            for transition, delta in entries:
                assert transition.delta_map[state] == delta
        # Every non-silent effect appears exactly once.
        total = sum(len(entries) for entries in rows.values())
        expected = sum(len(t.delta_map) for t in protocol.transitions)
        assert total == expected

    def test_builder_reuses_the_context_basis(self):
        context = AnalysisContext(majority_protocol())
        builder = context.builder
        assert builder.state_deltas is context.state_deltas
        assert context.computes.get("state_deltas", 0) == 1

    def test_place_invariants_are_conserved_by_every_transition(self):
        from fractions import Fraction

        protocol = majority_protocol()
        context = AnalysisContext(protocol)
        invariants = context.place_invariants
        assert invariants, "a conservative protocol net has invariants"
        for invariant in invariants:
            for transition in protocol.transitions:
                change = sum(
                    (
                        Fraction(weight) * transition.delta_map.get(state, 0)
                        for state, weight in invariant.items()
                    ),
                    Fraction(0),
                )
                assert change == 0
        # The agent-count invariant is in the span; at minimum the net is
        # recognised as conservative through the memoized Petri net.
        assert context.computes.get("petri_net", 0) == 1

    def test_linear_artifacts_are_portable(self):
        """The linear artifacts and patterns are plain, picklable values."""
        import pickle

        context = AnalysisContext(majority_protocol())
        for artifact in (context.state_deltas, context.place_invariants, context.terminal_patterns):
            assert pickle.loads(pickle.dumps(artifact)) == artifact


class TestDeprecatedTrapsSiphonsShim:
    def test_canonical_import_does_not_warn(self):
        sys.modules.pop("repro.petri.traps_siphons", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            importlib.import_module("repro.petri.traps_siphons")
