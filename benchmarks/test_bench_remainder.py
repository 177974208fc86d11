"""Table 1, sub-table "Remainder".

The paper sweeps the modulus m from 10 to 80 (|Q| = m + 2,
|T| = m(m+1)/2 + m, times from 0.4 s to a one-hour timeout at m = 80) with
the secondary parameter c fixed to 1 and all coefficient values present.
"""

from __future__ import annotations

import pytest

from repro.protocols.library import remainder_protocol
from repro.verification.ws3 import verify_ws3_impl

from .conftest import requires_large, run_once

SMALL_MODULI = [3, 5]
LARGE_MODULI = [8, 10, 20]


def _table_protocol(m: int):
    return remainder_protocol(list(range(m)), m, 1)


@pytest.mark.parametrize("m", SMALL_MODULI)
def test_remainder_ws3(benchmark, m):
    protocol = _table_protocol(m)
    assert protocol.num_states == m + 2
    assert protocol.num_transitions == m * (m + 1) // 2 + m
    result = run_once(benchmark, verify_ws3_impl, protocol)
    assert result.is_ws3


@requires_large()
@pytest.mark.parametrize("m", LARGE_MODULI)
def test_remainder_ws3_paper_sizes(benchmark, m):
    protocol = _table_protocol(m)
    assert protocol.num_transitions == m * (m + 1) // 2 + m
    result = run_once(benchmark, verify_ws3_impl, protocol)
    assert result.is_ws3
