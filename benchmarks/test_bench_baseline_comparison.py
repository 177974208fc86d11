"""Baseline comparison: WS³ proof for all inputs vs. single-input model checking.

The paper's headline claim (abstract and Section 6): the constraint-based
approach proves well-specification *for all of the infinitely many inputs*
in less time than earlier explicit-state tools [6, 8, 21, 25] needed to
check one single large input.  This benchmark pits the two approaches
against each other on the same protocol:

* ``ws3``   — one run of the WS³ membership check (covers every input);
* ``explicit-n<size>`` — explicit-state verification of *one* input of the
  given population size (the baseline; its cost grows quickly with the
  population, while the WS³ check is independent of it).
"""

from __future__ import annotations

import pytest

from repro.protocols.library import flock_of_birds_protocol, majority_protocol
from repro.verification.explicit import verify_single_input
from repro.verification.ws3 import verify_ws3_impl

from .conftest import run_once

MAJORITY_POPULATIONS = [10, 14, 18]
FLOCK_POPULATIONS = [7, 9, 11]


def test_majority_all_inputs_via_ws3(benchmark):
    result = run_once(benchmark, verify_ws3_impl, majority_protocol())
    assert result.is_ws3


@pytest.mark.parametrize("size", MAJORITY_POPULATIONS)
def test_majority_single_input_via_explicit_search(benchmark, size):
    protocol = majority_protocol()
    population = {"A": size // 2, "B": size - size // 2}
    result = run_once(
        benchmark, verify_single_input, protocol, population, max_configurations=2_000_000
    )
    assert result.well_specified


def test_flock_all_inputs_via_ws3(benchmark):
    result = run_once(benchmark, verify_ws3_impl, flock_of_birds_protocol(6))
    assert result.is_ws3


@pytest.mark.parametrize("size", FLOCK_POPULATIONS)
def test_flock_single_input_via_explicit_search(benchmark, size):
    protocol = flock_of_birds_protocol(6)
    population = {"sick": size, "healthy": 2}
    result = run_once(
        benchmark, verify_single_input, protocol, population, max_configurations=2_000_000
    )
    assert result.well_specified
