"""Section 6 extension: proving correctness after proving WS³ membership.

The paper reports (in prose) that after the well-specification check it
could also prove, for every benchmark family, that the protocol computes its
intended predicate, and that this check was usually faster than the
well-specification check (slower only for the remainder protocol).  Each
benchmark here runs the correctness check of a protocol against its
documented predicate.
"""

from __future__ import annotations

import pytest

from repro.protocols.library import (
    broadcast_protocol,
    flock_of_birds_protocol,
    flock_of_birds_threshold_n_protocol,
    majority_protocol,
    remainder_protocol,
)
from repro.verification.correctness import check_correctness_impl

from .conftest import run_once

CASES = {
    "majority": lambda: majority_protocol(),
    "broadcast": lambda: broadcast_protocol(),
    "flock-of-birds-c6": lambda: flock_of_birds_protocol(6),
    "flock-of-birds-threshold-n-c8": lambda: flock_of_birds_threshold_n_protocol(8),
    "remainder-m4": lambda: remainder_protocol(list(range(4)), 4, 1),
}

# The remainder-m4 correctness query mixes modular arithmetic with the
# product construction and takes minutes even on the incremental solver.
_SLOW_CASES = {"remainder-m4"}
CASE_PARAMS = [
    pytest.param(name, marks=pytest.mark.slow) if name in _SLOW_CASES else name
    for name in sorted(CASES)
]


@pytest.mark.parametrize("name", CASE_PARAMS)
def test_correctness_of_documented_predicate(benchmark, name):
    protocol = CASES[name]()
    predicate = protocol.metadata["predicate"]
    result = run_once(benchmark, check_correctness_impl, protocol, predicate)
    assert result.holds
