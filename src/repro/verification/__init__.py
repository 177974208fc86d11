"""The WS³ verification engine (Sections 4 and 6 of the paper).

The supported entry point is the unified session API of :mod:`repro.api`::

    from repro.api import Verifier

    report = Verifier().check(protocol, properties=["ws3", "correctness"])

The decision procedures behind the API's property checkers are exported
here as ``*_impl`` functions returning the typed result dataclasses.
:mod:`repro.verification.explicit` — the explicit-state single-input
baseline of earlier work — is also exposed through the ``"explicit"``
property of the new API.
"""

from repro.verification.correctness import CorrectnessResult, check_correctness_impl
from repro.verification.layered_termination import (
    LayeredTerminationResult,
    check_layered_termination_impl,
    check_partition,
)
from repro.verification.strong_consensus import StrongConsensusResult, check_strong_consensus_impl
from repro.verification.ws3 import WS3Result, verify_ws3_impl

__all__ = [
    "verify_ws3_impl",
    "WS3Result",
    "check_layered_termination_impl",
    "check_partition",
    "LayeredTerminationResult",
    "check_strong_consensus_impl",
    "StrongConsensusResult",
    "check_correctness_impl",
    "CorrectnessResult",
]
