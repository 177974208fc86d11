"""Per-protocol analysis context: shared structural artifacts, computed once.

Every property check of a WS³ verification needs some of the same
protocol-derived artifacts — the constraint builder's indices, the terminal
support patterns, the per-transition pre/post supports driving the
trap/siphon fixed points, the enabling graph and Lemma 22 witness sets of
the partition search, the underlying Petri net and its normal form.
Before this module each check re-derived what it needed; an
:class:`AnalysisContext` computes each artifact lazily, memoizes it, and is
shared across all property checks of a :class:`repro.api.Verifier` session.

``computes`` counts how often each artifact was actually *computed* (not
served from the memo) — the session-sharing guarantee "at most once per
protocol" is asserted by a counting test.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.constraints.builders import (
    ConstraintBuilder,
    TerminalPattern,
    terminal_support_patterns,
)
from repro.protocols.protocol import PopulationProtocol, Transition


class AnalysisContext:
    """Lazily computed, memoized structural artifacts of one protocol."""

    def __init__(self, protocol: PopulationProtocol):
        self.protocol = protocol
        self._memo: dict[str, object] = {}
        #: artifact name -> number of times it was computed from scratch.
        self.computes: dict[str, int] = {}

    def _get(self, name: str, compute: Callable[[], object]):
        if name not in self._memo:
            self._memo[name] = compute()
            self.computes[name] = self.computes.get(name, 0) + 1
        return self._memo[name]

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------

    @property
    def builder(self) -> ConstraintBuilder:
        """The shared constraint builder (state/transition indices).

        The builder consumes the context's :attr:`state_deltas` basis, so
        the flow-equation rows are derived once per protocol no matter how
        many properties a session checks.
        """
        return self._get(
            "builder", lambda: ConstraintBuilder(self.protocol, state_deltas=self.state_deltas)
        )

    @property
    def terminal_patterns(self) -> list[TerminalPattern]:
        """The terminal support patterns (maximal independent sets)."""
        return self._get("terminal_patterns", lambda: terminal_support_patterns(self.protocol))

    @property
    def transition_supports(self) -> dict[Transition, tuple[frozenset, frozenset]]:
        """The trap/siphon basis: per-transition (pre-support, post-support).

        This is what the greedy maximal-trap/siphon fixed points of the
        CEGAR refinement iterate over; precomputing the frozensets once per
        protocol removes the per-iteration support recomputation.
        """
        return self._get(
            "trap_siphon_basis",
            lambda: {
                t: (frozenset(t.pre.support()), frozenset(t.post.support()))
                for t in self.protocol.transitions
            },
        )

    @property
    def petri_net(self):
        """The conservative Petri net underlying the protocol."""

        def compute():
            from repro.petri.protocol_conversion import petri_net_from_protocol

            return petri_net_from_protocol(self.protocol)

        return self._get("petri_net", compute)

    @property
    def normal_form(self):
        """The normal form (Appendix A) of the underlying net."""

        def compute():
            from repro.petri.normal_form import to_normal_form

            return to_normal_form(self.petri_net)

        return self._get("normal_form", compute)

    @property
    def enabling_graph(self) -> dict[Transition, frozenset[Transition]]:
        """The pairwise "may enable" relation (layered-termination heuristic)."""

        def compute():
            from repro.verification.layered_termination import enabling_graph

            return enabling_graph(self.protocol)

        return self._get("enabling_graph", compute)

    @property
    def lemma22_witnesses(self) -> dict[tuple[Transition, Transition], list[Transition]]:
        """The U-sets ``U'(t, u)`` of Appendix D.1 for every transition pair."""

        def compute():
            from repro.verification.layered_termination import _lemma22_witness_sets

            return _lemma22_witness_sets(list(self.protocol.transitions))

        return self._get("lemma22_witnesses", compute)

    @property
    def state_deltas(self) -> dict:
        """The reachability over-approximation basis: per-state flow-equation rows.

        ``state -> ((transition, delta), ...)`` in the builder's deterministic
        order — exactly the sums the flow equations ``C' = C + Δ·x`` (the
        state-equation over-approximation of reachability) iterate over.
        The :class:`ConstraintBuilder` consumes this instead of re-deriving
        the rows per property check.
        Derived by :func:`repro.constraints.builders.state_delta_rows`, the
        one source of the row ordering.
        """
        from repro.constraints.builders import state_delta_rows

        return self._get("state_deltas", lambda: state_delta_rows(self.protocol))

    @property
    def place_invariants(self) -> list[dict]:
        """A basis of rational place invariants of the underlying Petri net.

        Each invariant maps protocol states (= net places) to ``Fraction``
        weights with ``y^T·Δ = 0``: every invariant value is conserved by
        every transition, so ``y·C = y·C0`` along any run — the classical
        linear over-approximation companion to :attr:`state_deltas`.
        """

        def compute():
            from repro.petri.analysis import place_invariants

            return place_invariants(self.petri_net)

        return self._get("place_invariants", compute)

    @property
    def protocol_key(self) -> str:
        """The content-addressed protocol hash (result-cache key component)."""

        def compute():
            from repro.engine.cache import protocol_content_hash

            return protocol_content_hash(self.protocol)

        return self._get("protocol_key", compute)

    def seed_protocol_key(self, key: str) -> "AnalysisContext":
        """Install an already-known content hash (avoids recomputing it)."""
        self._memo.setdefault("protocol_key", key)
        return self
