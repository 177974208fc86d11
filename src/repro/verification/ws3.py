"""Membership in WS³ (Theorem 16): LayeredTermination ∧ StrongConsensus.

A protocol belongs to WS³ iff it satisfies both properties; every
WS³-protocol is well-specified (WS³ ⊆ WS² ⊆ WS), and WS³ computes exactly
the Presburger-definable predicates (Section 5), so nothing is lost by
restricting verification to this class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.constraints.context import AnalysisContext
from repro.protocols.protocol import PopulationProtocol
from repro.verification.layered_termination import (
    LayeredTerminationResult,
    check_layered_termination_impl,
)
from repro.verification.strong_consensus import (
    StrongConsensusResult,
    check_strong_consensus_impl,
)


@dataclass
class WS3Result:
    """Outcome of the WS³ membership check."""

    protocol_name: str
    is_ws3: bool
    layered_termination: LayeredTerminationResult
    strong_consensus: StrongConsensusResult | None
    statistics: dict = field(default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.is_ws3

    @property
    def is_well_specified(self) -> bool:
        """Membership in WS³ implies well-specification (but not conversely)."""
        return self.is_ws3

    def summary(self) -> str:
        lines = [f"WS3 membership check for {self.protocol_name}: {'YES' if self.is_ws3 else 'NOT PROVEN'}"]
        lt = self.layered_termination
        lines.append(
            f"  LayeredTermination: {'holds' if lt.holds else 'not established'}"
            + (
                f" ({lt.certificate.num_layers} layer(s), strategy {lt.certificate.strategy})"
                if lt.certificate
                else f" ({lt.reason})"
            )
        )
        if self.strong_consensus is None:
            lines.append("  StrongConsensus: skipped")
        else:
            sc = self.strong_consensus
            lines.append(
                f"  StrongConsensus: {'holds' if sc.holds else 'fails'}"
                f" ({len(sc.refinements)} trap/siphon refinement(s))"
            )
            if sc.counterexample is not None:
                lines.append(f"    counterexample: {sc.counterexample.describe()}")
        lines.append(f"  total time: {self.statistics.get('time', 0.0):.3f}s")
        return "\n".join(lines)


def verify_ws3_impl(
    protocol: PopulationProtocol,
    strategy: str = "auto",
    theory: str = "auto",
    max_layers: int | None = None,
    check_consensus_first: bool = False,
    materialize_rankings: bool = False,
    consensus_strategy: str = "auto",
    max_refinements: int = 10_000,
    max_pattern_pairs: int = 250_000,
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> WS3Result:
    """Decide membership of a protocol in WS³ (implementation).

    This is the decision procedure behind the ``"ws3"`` property of
    :class:`repro.api.verifier.Verifier`.  Both properties run sequentially in the
    calling process, each as one refinement loop over a persistent solver;
    parallelism lives one level up, where a batch verifies one protocol per
    worker process (:meth:`repro.api.Verifier.check_many`).

    Parameters
    ----------
    strategy:
        Partition-search strategy for LayeredTermination (see
        :func:`repro.verification.layered_termination.check_layered_termination_impl`).
    theory:
        Constraint-solver backend: ``"auto"``, ``"scipy"`` or ``"exact"``.
    check_consensus_first:
        The paper observes that StrongConsensus is usually cheaper than
        LayeredTermination; set this to run it first (the result is the same,
        only the time distribution changes).
    """
    start = time.perf_counter()
    strong_consensus: StrongConsensusResult | None = None
    if context is None:
        context = AnalysisContext(protocol)

    def run_consensus() -> StrongConsensusResult:
        return check_strong_consensus_impl(
            protocol,
            theory=theory,
            strategy=consensus_strategy,
            max_refinements=max_refinements,
            max_pattern_pairs=max_pattern_pairs,
            backend=backend,
            context=context,
        )

    def run_layered() -> LayeredTerminationResult:
        return check_layered_termination_impl(
            protocol,
            strategy=strategy,
            max_layers=max_layers,
            theory=theory,
            materialize_rankings=materialize_rankings,
            backend=backend,
            context=context,
        )

    if check_consensus_first:
        strong_consensus = run_consensus()
        layered = run_layered()
    else:
        layered = run_layered()
        if layered.holds:
            strong_consensus = run_consensus()

    is_member = layered.holds and strong_consensus is not None and strong_consensus.holds
    elapsed = time.perf_counter() - start
    statistics = {
        "time": elapsed,
        "layered_termination_time": layered.statistics.get("time"),
        "strong_consensus_time": (strong_consensus.statistics.get("time") if strong_consensus else None),
        "refinements": len(strong_consensus.refinements) if strong_consensus else 0,
        "num_states": protocol.num_states,
        "num_transitions": protocol.num_transitions,
    }
    return WS3Result(
        protocol_name=protocol.name,
        is_ws3=is_member,
        layered_termination=layered,
        strong_consensus=strong_consensus,
        statistics=statistics,
    )
