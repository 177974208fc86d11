"""Table 1, sub-table "Threshold".

The paper sweeps vmax from 3 to 10 (|Q| = 4(2·vmax+1), |T| growing to 2626,
times from 8 s to a one-hour timeout at vmax = 10), with c = 1 and one input
variable per coefficient value in [-vmax, vmax] (the worst case, making every
leader state initial).
"""

from __future__ import annotations

import pytest

from repro.protocols.library import threshold_table_protocol
from repro.verification.ws3 import verify_ws3_impl

from .conftest import requires_large, run_once

#: (vmax, expected |T|) — the |T| values for vmax = 3, 4 appear in Table 1.
EXPECTED_TRANSITIONS = {3: 288, 4: 478}

SMALL_VMAX = [2]
LARGE_VMAX = [3, 4]


@pytest.mark.parametrize("vmax", SMALL_VMAX)
def test_threshold_ws3(benchmark, vmax):
    protocol = threshold_table_protocol(vmax)
    assert protocol.num_states == 4 * (2 * vmax + 1)
    if vmax in EXPECTED_TRANSITIONS:
        assert protocol.num_transitions == EXPECTED_TRANSITIONS[vmax]
    result = run_once(benchmark, verify_ws3_impl, protocol)
    assert result.is_ws3


@requires_large()
@pytest.mark.parametrize("vmax", LARGE_VMAX)
def test_threshold_ws3_paper_sizes(benchmark, vmax):
    protocol = threshold_table_protocol(vmax)
    assert protocol.num_transitions == EXPECTED_TRANSITIONS[vmax]
    result = run_once(benchmark, verify_ws3_impl, protocol)
    assert result.is_ws3
