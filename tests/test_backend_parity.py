"""Cross-backend parity: every library protocol gets the same verdicts
(and equivalent counterexamples) from every registered backend.

"Equivalent" for counterexamples means: both backends report a genuine
witness of the violation (a valid potential-reachability pair with
disagreeing outputs).  The concrete model may differ between backends —
each solver picks its own satisfying assignment — but validity is checked
exactly either way.
"""

from __future__ import annotations

import pytest

from repro.api import VerificationOptions, Verifier
from repro.constraints.backends import available_backends
from repro.protocols.library import (
    broadcast_protocol,
    flock_of_birds_protocol,
    majority_protocol,
    remainder_protocol,
    threshold_protocol,
)
from repro.protocols.library.faulty import (
    coin_flip_protocol,
    oscillating_majority_protocol,
)
from repro.verification.flow import PotentialReachabilityWitness, check_potential_reachability

BACKENDS = tuple(sorted(available_backends()))

#: One small instance per library family of the paper (plus the faulty ones).
FAMILIES = [
    ("threshold", lambda: threshold_protocol([1], 2)),
    ("remainder", lambda: remainder_protocol([1], 3, 1)),
    ("majority", majority_protocol),
    ("flock_of_birds", lambda: flock_of_birds_protocol(3)),
    ("broadcast", broadcast_protocol),
    ("faulty:coin_flip", coin_flip_protocol),
    ("faulty:oscillating_majority", oscillating_majority_protocol),
]


def _reports_by_backend(factory, properties):
    reports = {}
    for backend in BACKENDS:
        protocol = factory()
        with Verifier(VerificationOptions(backend=backend)) as verifier:
            reports[backend] = verifier.check(protocol, properties=properties)
    return reports


@pytest.mark.parametrize("name,factory", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_ws3_verdicts_identical_across_backends(name, factory):
    reports = _reports_by_backend(factory, ["ws3"])
    verdicts = {backend: report.is_ws3 for backend, report in reports.items()}
    assert len(set(verdicts.values())) == 1, f"backends disagree on {name}: {verdicts}"

    # Per-part verdicts must line up too, not just the conjunction.
    parts = {
        backend: [
            (part.property, part.verdict.value)
            for part in report.result_for("ws3").parts
        ]
        for backend, report in reports.items()
    }
    reference = parts[BACKENDS[0]]
    for backend, backend_parts in parts.items():
        assert backend_parts == reference, f"{name}: {backend} parts diverge"


@pytest.mark.parametrize(
    "name,factory",
    # Of the faulty protocols, coin-flip is the one violating StrongConsensus
    # (oscillating-majority fails WS³ through layered termination instead).
    [("faulty:coin_flip", coin_flip_protocol)],
    ids=["faulty:coin_flip"],
)
def test_counterexamples_equivalent_across_backends(name, factory):
    """Every backend produces a *valid* StrongConsensus counterexample."""
    protocol = factory()
    for backend in BACKENDS:
        with Verifier(VerificationOptions(backend=backend)) as verifier:
            report = verifier.check(factory(), properties=["strong_consensus"])
        result = report.result_for("strong_consensus")
        assert not result.holds, f"{backend} missed the {name} violation"
        counterexample = result.counterexample
        assert counterexample is not None

        for terminal, flow in (
            (counterexample.terminal_true, counterexample.flow_true),
            (counterexample.terminal_false, counterexample.flow_false),
        ):
            witness = PotentialReachabilityWitness(
                source=counterexample.initial, target=terminal, flow=dict(flow)
            )
            valid, reason = check_potential_reachability(protocol, witness)
            assert valid, f"{backend} returned an invalid witness for {name}: {reason}"
        outputs_true = {protocol.output_map[state] for state in counterexample.terminal_true.support()}
        outputs_false = {protocol.output_map[state] for state in counterexample.terminal_false.support()}
        # The witness must actually disagree: the "true" side populates an
        # output-1 state and the "false" side an output-0 state.
        assert 1 in outputs_true and 0 in outputs_false


@pytest.mark.parametrize(
    "name,factory",
    [("threshold", lambda: threshold_protocol([1], 2)), ("remainder", lambda: remainder_protocol([1], 3, 1))],
    ids=["threshold", "remainder"],
)
def test_correctness_verdicts_identical_across_backends(name, factory):
    """The predicate-correctness check agrees across backends too."""
    verdicts = {}
    for backend in BACKENDS:
        with Verifier(VerificationOptions(backend=backend)) as verifier:
            report = verifier.check(factory(), properties=["correctness"])
        verdicts[backend] = report.result_for("correctness").verdict.value
    assert set(verdicts.values()) == {"holds"}, verdicts


def test_backend_recorded_in_report_options():
    with Verifier(VerificationOptions(backend="scipy-ilp")) as verifier:
        report = verifier.check(majority_protocol(), properties=["strong_consensus"])
    assert report.options["backend"] == "scipy-ilp"
    assert report.result_for("strong_consensus").statistics["backend"] == "scipy-ilp"


# ----------------------------------------------------------------------
# The refinement loops keep one persistent solver with scoped deltas and
# base-level cut promotion; a violation they report must still be genuine.
# ----------------------------------------------------------------------


def test_incremental_counterexample_still_valid():
    """A violation found by the incremental loop is a genuine witness."""
    protocol = coin_flip_protocol()
    with Verifier(VerificationOptions()) as verifier:
        report = verifier.check(protocol, properties=["strong_consensus"])
    result = report.result_for("strong_consensus")
    assert not result.holds
    counterexample = result.counterexample
    for terminal, flow in (
        (counterexample.terminal_true, counterexample.flow_true),
        (counterexample.terminal_false, counterexample.flow_false),
    ):
        witness = PotentialReachabilityWitness(
            source=counterexample.initial, target=terminal, flow=dict(flow)
        )
        valid, reason = check_potential_reachability(protocol, witness)
        assert valid, reason
