"""Ablation: the trap/siphon CEGAR refinement and the two StrongConsensus strategies.

Two design choices called out in DESIGN.md are measured here:

* *Refinement demand*: the paper notes that the flock-of-birds protocols are
  the only family needing (linearly) many U-trap refinements.  The first
  group of benchmarks records StrongConsensus time as the flock parameter
  grows and asserts that the number of refinements grows with c.

* *Terminal-constraint handling*: our default strategy replaces the paper's
  monolithic ``Terminal(c)`` disjunctions (delegated to Z3 in the original
  tool) by an explicit enumeration of terminal support patterns.  The second
  group compares the two strategies on protocols small enough for the
  monolithic encoding to be practical with the from-scratch solver.
"""

from __future__ import annotations

import pytest

from repro.protocols.library import (
    broadcast_protocol,
    flock_of_birds_protocol,
    majority_protocol,
)
from repro.verification.strong_consensus import check_strong_consensus_impl

from .conftest import run_once

FLOCK_PARAMETERS = [3, 4, 5, 6]


@pytest.mark.parametrize("c", FLOCK_PARAMETERS)
def test_flock_refinement_demand(benchmark, c):
    protocol = flock_of_birds_protocol(c)
    result = run_once(benchmark, check_strong_consensus_impl, protocol)
    assert result.holds
    # The paper observes linearly many trap/siphon refinements for this family.
    assert len(result.refinements) >= c - 2


@pytest.mark.parametrize("strategy", ["patterns", "monolithic"])
def test_majority_strategy_comparison(benchmark, strategy):
    protocol = majority_protocol()
    result = run_once(benchmark, check_strong_consensus_impl, protocol, strategy=strategy)
    assert result.holds


@pytest.mark.parametrize("strategy", ["patterns", "monolithic"])
def test_broadcast_strategy_comparison(benchmark, strategy):
    protocol = broadcast_protocol()
    result = run_once(benchmark, check_strong_consensus_impl, protocol, strategy=strategy)
    assert result.holds


@pytest.mark.parametrize("strategy", ["patterns", "monolithic"])
def test_small_flock_strategy_comparison(benchmark, strategy):
    protocol = flock_of_birds_protocol(3)
    result = run_once(benchmark, check_strong_consensus_impl, protocol, strategy=strategy)
    assert result.holds
