"""repro — Efficient verification of population protocols.

A from-scratch reproduction of:

    Michael Blondin, Javier Esparza, Stefan Jaax, Philipp J. Meyer.
    "Towards Efficient Verification of Population Protocols", PODC 2017.

The package provides:

* population-protocol syntax, semantics and simulation (:mod:`repro.protocols`),
* a library of standard protocols (majority, broadcast, flock of birds,
  threshold, remainder) and protocol combinators (:mod:`repro.protocols.library`),
* Presburger predicates and their compilation to WS³ protocols
  (:mod:`repro.presburger`),
* the WS³ membership checker (LayeredTermination + StrongConsensus) and the
  correctness checker (:mod:`repro.verification`),
* an explicit-state baseline verifier for single inputs,
* a from-scratch SMT-style constraint solver for linear integer arithmetic
  (:mod:`repro.smtlite`), replacing the paper's use of Z3,
* a Petri-net substrate (:mod:`repro.petri`).
"""

from repro.datatypes.multiset import Multiset
from repro.protocols.protocol import (
    Configuration,
    OrderedPartition,
    PopulationProtocol,
    Transition,
)
from repro.protocols.simulation import SimulationResult, Simulator, simulate

__version__ = "1.0.0"

__all__ = [
    "Multiset",
    "Configuration",
    "OrderedPartition",
    "PopulationProtocol",
    "Transition",
    "SimulationResult",
    "Simulator",
    "simulate",
    "Verifier",
    "VerificationOptions",
    "VerificationReport",
    "Verdict",
    "__version__",
]


def __getattr__(name):
    """Lazily expose the higher-level subsystems without import cycles."""
    if name in ("Verifier", "VerificationOptions", "VerificationReport", "Verdict"):
        import repro.api as api

        return getattr(api, name)
    if name == "WS3Result":
        from repro.verification.ws3 import WS3Result

        return WS3Result
    if name == "library":
        from repro.protocols import library

        return library
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
