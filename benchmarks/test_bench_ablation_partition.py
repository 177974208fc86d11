"""Ablation: partition-search strategies for LayeredTermination.

The NP part of the WS³ check is finding an ordered partition.  The paper
iterates a constraint encoding (Appendix D.1) over a growing number of
layers; this repository additionally supports checking a protocol-supplied
certificate (the partitions from the paper's own proofs) and a polynomial
SCC-based heuristic.  These benchmarks compare the strategies on protocols
where more than one of them succeeds.
"""

from __future__ import annotations

import pytest

from repro.protocols.library import (
    broadcast_protocol,
    flock_of_birds_protocol,
    majority_protocol,
    remainder_protocol,
    threshold_protocol,
)
from repro.verification.layered_termination import check_layered_termination_impl

from .conftest import run_once


@pytest.mark.parametrize("strategy", ["hint", "smt"])
def test_majority_partition_strategies(benchmark, strategy):
    protocol = majority_protocol()
    result = run_once(benchmark, check_layered_termination_impl, protocol, strategy=strategy)
    assert result.holds


@pytest.mark.parametrize("strategy", ["single", "scc", "smt"])
def test_broadcast_partition_strategies(benchmark, strategy):
    protocol = broadcast_protocol()
    result = run_once(benchmark, check_layered_termination_impl, protocol, strategy=strategy)
    assert result.holds


@pytest.mark.parametrize("strategy", ["single", "smt"])
def test_flock_partition_strategies(benchmark, strategy):
    protocol = flock_of_birds_protocol(4)
    result = run_once(benchmark, check_layered_termination_impl, protocol, strategy=strategy)
    assert result.holds


@pytest.mark.parametrize("strategy", ["hint", "smt"])
def test_small_remainder_partition_strategies(benchmark, strategy):
    protocol = remainder_protocol([0, 1, 2], 3, 1)
    result = run_once(benchmark, check_layered_termination_impl, protocol, strategy=strategy)
    assert result.holds


@pytest.mark.parametrize("strategy", ["hint"])
def test_small_threshold_partition_strategies(benchmark, strategy):
    protocol = threshold_protocol({"x": 1}, 1)
    result = run_once(benchmark, check_layered_termination_impl, protocol, strategy=strategy)
    assert result.holds
