"""Procedure-vs-report parity: the ``*_impl`` procedures and the Verifier agree.

For every protocol family below, the decision procedures called directly
(``verify_ws3_impl``, ``check_*_impl``) and ``Verifier().check(...)`` must
produce identical verdicts, identical counterexamples and matching
certificates: the report conversion loses nothing the typed results carry.
"""

from __future__ import annotations

import pytest

from repro.api import Verdict, Verifier
from repro.protocols.library import (
    broadcast_protocol,
    coin_flip_protocol,
    exclusive_majority_protocol,
    flock_of_birds_protocol,
    majority_protocol,
    oscillating_majority_protocol,
    remainder_protocol,
)
from repro.verification.correctness import check_correctness_impl
from repro.verification.layered_termination import check_layered_termination_impl
from repro.verification.strong_consensus import check_strong_consensus_impl
from repro.verification.ws3 import verify_ws3_impl

FAMILIES = [
    ("majority", majority_protocol),
    ("broadcast", broadcast_protocol),
    ("flock-of-birds-4", lambda: flock_of_birds_protocol(4)),
    ("remainder-3", lambda: remainder_protocol([1], 3, 1)),
    ("coin-flip", coin_flip_protocol),
    ("exclusive-majority", exclusive_majority_protocol),
]


@pytest.mark.parametrize("name,factory", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_ws3_verdicts_and_counterexamples_match(name, factory):
    old = verify_ws3_impl(factory())
    report = Verifier().check(factory(), properties=["ws3"])

    assert report.is_ws3 == old.is_ws3
    assert report.holds("layered_termination") == old.layered_termination.holds

    new_sc = report.result_for("strong_consensus")
    if old.strong_consensus is None:
        assert new_sc.verdict is Verdict.SKIPPED
    else:
        assert new_sc.holds == old.strong_consensus.holds
        assert new_sc.counterexample == old.strong_consensus.counterexample
        assert new_sc.refinements == old.strong_consensus.refinements


def test_ws3_parity_when_layered_termination_fails():
    old = verify_ws3_impl(oscillating_majority_protocol())
    report = Verifier().check(oscillating_majority_protocol())
    assert not old.is_ws3 and not report.is_ws3
    assert old.strong_consensus is None
    assert report.result_for("strong_consensus").verdict is Verdict.SKIPPED
    assert report.result_for("layered_termination").reason == old.layered_termination.reason


def test_layered_termination_certificate_parity():
    old = check_layered_termination_impl(majority_protocol(), materialize_rankings=True)
    report = Verifier(materialize_rankings=True).check(
        majority_protocol(), properties=["layered_termination"]
    )
    new = report.result_for("layered_termination")
    assert new.holds == old.holds
    assert new.certificate.partition == old.certificate.partition
    assert new.certificate.strategy == old.certificate.strategy
    assert [layer.ranking for layer in new.certificate.layers] == [
        layer.ranking for layer in old.certificate.layers
    ]


def test_strong_consensus_counterexample_parity():
    old = check_strong_consensus_impl(coin_flip_protocol())
    report = Verifier().check(coin_flip_protocol(), properties=["strong_consensus"])
    new = report.result_for("strong_consensus")
    assert not old.holds and not new.holds
    assert new.counterexample == old.counterexample


def test_correctness_counterexample_parity():
    wrong_predicate = majority_protocol().metadata["predicate"]
    old = check_correctness_impl(exclusive_majority_protocol(), wrong_predicate)
    report = Verifier().check(
        exclusive_majority_protocol(), properties=["correctness"], predicate=wrong_predicate
    )
    new = report.result_for("correctness")
    assert not old.holds and not new.holds
    assert new.counterexample == old.counterexample
    assert new.refinements == old.refinements


def test_correctness_documented_predicate_parity():
    protocol = broadcast_protocol()
    old = check_correctness_impl(protocol, protocol.metadata["predicate"])
    # The Verifier defaults to the documented predicate from the metadata.
    report = Verifier().check(broadcast_protocol(), properties=["correctness"])
    assert report.holds("correctness") == old.holds
