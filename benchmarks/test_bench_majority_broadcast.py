"""Table 1, sub-tables "Majority" and "Broadcast".

The paper reports a single row for each of these fixed-size protocols
(majority: |Q| = 4, |T| = 4, 0.1 s; broadcast: |Q| = 2, |T| = 1, 0.1 s).
Each benchmark proves WS³ membership from scratch.
"""

from __future__ import annotations

from repro.protocols.library import broadcast_protocol, majority_protocol
from repro.verification.ws3 import verify_ws3_impl

from .conftest import run_once


def test_majority_ws3(benchmark):
    protocol = majority_protocol()
    assert (protocol.num_states, protocol.num_transitions) == (4, 4)  # Table 1 row
    result = run_once(benchmark, verify_ws3_impl, protocol)
    assert result.is_ws3


def test_broadcast_ws3(benchmark):
    protocol = broadcast_protocol()
    assert (protocol.num_states, protocol.num_transitions) == (2, 1)  # Table 1 row
    result = run_once(benchmark, verify_ws3_impl, protocol)
    assert result.is_ws3
