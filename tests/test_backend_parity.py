"""Cross-solver parity: every library protocol gets the same verdicts
(and equivalent counterexamples) from every solver configuration.

The configurations are the default backend on each of its two theory
solvers (scipy/HiGHS and the pure-Python exact one), plus the z3 backend
when it is registered (the independent reference solver).  Every
configuration must also reproduce the family's known WS³ verdict.

"Equivalent" for counterexamples means: every configuration reports a
genuine witness of the violation (a valid potential-reachability pair with
disagreeing outputs).  The concrete model may differ between solvers —
each picks its own satisfying assignment — but validity is checked exactly
either way.
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

#: Solver configurations by label: smtlite on each theory solver, plus z3.
BACKENDS = {
    "smtlite/scipy": VerificationOptions(theory="scipy"),
    "smtlite/exact": VerificationOptions(theory="exact"),
}
if "z3" in available_backends():  # pragma: no cover - optional dependency
    BACKENDS["z3"] = VerificationOptions(backend="z3")

#: Families the exact theory solver is not run on: its dense rational
#: simplex needs minutes per property there (StrongConsensus on
#: threshold([1], 2) did not finish in 5 minutes), against about a second
#: on the other families.
EXACT_TOO_SLOW = {"threshold", "remainder", "faulty:oscillating_majority"}

#: One small instance per library family of the paper (plus the faulty
#: ones), with its WS³ verdict.
FAMILIES = [
    ("threshold", lambda: threshold_protocol([1], 2), True),
    ("remainder", lambda: remainder_protocol([1], 3, 1), True),
    ("majority", majority_protocol, True),
    ("flock_of_birds", lambda: flock_of_birds_protocol(3), True),
    ("broadcast", broadcast_protocol, True),
    ("faulty:coin_flip", coin_flip_protocol, False),
    ("faulty:oscillating_majority", oscillating_majority_protocol, False),
]


def _configurations(name):
    return {
        backend: options
        for backend, options in BACKENDS.items()
        if not (backend == "smtlite/exact" and name in EXACT_TOO_SLOW)
    }


def _reports_by_backend(name, factory, properties):
    reports = {}
    for backend, options in _configurations(name).items():
        with Verifier(options) as verifier:
            reports[backend] = verifier.check(factory(), properties=properties)
    return reports


@pytest.mark.parametrize(
    "name,factory,is_ws3", FAMILIES, ids=[name for name, _, _ in FAMILIES]
)
def test_ws3_verdicts_identical_across_backends(name, factory, is_ws3):
    reports = _reports_by_backend(name, factory, ["ws3"])
    verdicts = {backend: report.is_ws3 for backend, report in reports.items()}
    assert set(verdicts.values()) == {is_ws3}, f"wrong verdict on {name}: {verdicts}"

    # Per-part verdicts must line up too, not just the conjunction.
    parts = {
        backend: [
            (part.property, part.verdict.value)
            for part in report.result_for("ws3").parts
        ]
        for backend, report in reports.items()
    }
    reference = parts["smtlite/scipy"]
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
    """Every configuration produces a *valid* StrongConsensus counterexample."""
    protocol = factory()
    for backend, options in _configurations(name).items():
        with Verifier(options) as verifier:
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
    for backend, options in _configurations(name).items():
        with Verifier(options) as verifier:
            report = verifier.check(factory(), properties=["correctness"])
        verdicts[backend] = report.result_for("correctness").verdict.value
    assert set(verdicts.values()) == {"holds"}, verdicts


def test_backend_recorded_in_report_options():
    with Verifier(VerificationOptions(theory="exact")) as verifier:
        report = verifier.check(majority_protocol(), properties=["strong_consensus"])
    assert report.options["backend"] == "smtlite"
    assert report.options["theory"] == "exact"
    assert report.result_for("strong_consensus").statistics["backend"] == "smtlite"


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
