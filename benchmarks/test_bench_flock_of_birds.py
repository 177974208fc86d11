"""Table 1, sub-tables "Flock of birds [6]" and "Flock of birds [8]".

The paper sweeps the threshold parameter c (20..55 for the [6] variant,
50..350 for the [8] "threshold-n" variant) and reports |Q|, |T| and the time
to prove WS³ membership.  The |Q| / |T| columns are checked exactly
(``|Q| = c + 1``; ``|T| = c(c+1)/2`` resp. ``2c - 1``); the default sweep
uses smaller values of c than the paper (pure-Python solver vs. Z3), and the
paper's smallest parameter values are included behind ``REPRO_BENCH_LARGE=1``.
"""

from __future__ import annotations

import pytest

from repro.protocols.library import (
    flock_of_birds_protocol,
    flock_of_birds_threshold_n_protocol,
)
from repro.verification.ws3 import verify_ws3_impl

from .conftest import requires_large, run_once

SMALL_ACCUMULATION = [4, 5, 6]
LARGE_ACCUMULATION = [8, 10, 20]
# c=10 takes minutes even with the incremental solver; it stays in the suite
# but only runs when the slow marker is selected.
SMALL_TOWER = [5, 8, pytest.param(10, marks=pytest.mark.slow)]
LARGE_TOWER = [25, 50]


@pytest.mark.parametrize("c", SMALL_ACCUMULATION)
def test_flock_of_birds_ws3(benchmark, c):
    protocol = flock_of_birds_protocol(c)
    assert protocol.num_states == c + 1
    assert protocol.num_transitions == c * (c + 1) // 2
    result = run_once(benchmark, verify_ws3_impl, protocol)
    assert result.is_ws3


@requires_large()
@pytest.mark.parametrize("c", LARGE_ACCUMULATION)
def test_flock_of_birds_ws3_paper_sizes(benchmark, c):
    protocol = flock_of_birds_protocol(c)
    assert protocol.num_transitions == c * (c + 1) // 2
    result = run_once(benchmark, verify_ws3_impl, protocol)
    assert result.is_ws3


@pytest.mark.parametrize("c", SMALL_TOWER)
def test_flock_of_birds_threshold_n_ws3(benchmark, c):
    protocol = flock_of_birds_threshold_n_protocol(c)
    assert protocol.num_states == c + 1
    assert protocol.num_transitions == 2 * c - 1
    result = run_once(benchmark, verify_ws3_impl, protocol)
    assert result.is_ws3


@requires_large()
@pytest.mark.parametrize("c", LARGE_TOWER)
def test_flock_of_birds_threshold_n_ws3_paper_sizes(benchmark, c):
    protocol = flock_of_birds_threshold_n_protocol(c)
    assert protocol.num_transitions == 2 * c - 1
    result = run_once(benchmark, verify_ws3_impl, protocol)
    assert result.is_ws3
