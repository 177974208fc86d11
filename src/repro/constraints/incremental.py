"""Incremental (delta-aware) simplification over scoped constraint systems.

The CEGAR loops of the verification layer pose hundreds of closely-related
queries per protocol: one solver scope per pattern pair / layer bound, each
differing from a stable base by a handful of constraints.  Before this
module the per-scope block was rebuilt, re-simplified and re-asserted from
scratch — quadratic in the number of refinements, and the dominant cost of
the hot bench rows.  This module provides the pieces that make scopes true
deltas:

* :class:`SimplifyIndex` — a persistent duplicate/subsumption index with an
  undo trail, so delta constraints are checked against everything already
  asserted in O(1) instead of a full re-pass over the whole system;
* :class:`ScopedSimplifier` — couples a scoped
  :class:`~repro.constraints.ir.ConstraintSystem` with the index: the base
  is simplified once (through the content-hash cache), and each scope's
  delta is normalised alone — constant folding, optional bound tightening,
  dedup and subsumption against the index — with per-scope savings stats;
* :func:`incremental_statistics` — process-wide counters (scopes pushed and
  popped, delta constraints simplified, full re-simplifications avoided,
  learned cores retained across pops) surfaced through the ``stats`` serve
  op, ``GET /statsz`` and the bench snapshot.

Soundness invariants (asserted by the property-based tests):

* **pop never leaks**: after :meth:`ScopedSimplifier.pop`, both the system
  and the index are byte-identical to their state at the matching push;
* **delta == from-scratch**: at every point of a push/add/tighten/pop
  trace, the scoped system is equivalent (same ``evaluate`` on every
  assignment, same solver verdict) to from-scratch simplification of the
  flattened system — the delta pass only ever drops constraints *implied*
  by still-active ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.ir import ConstraintSystem
from repro.constraints.simplify import SimplifyStats, _single_variable_bound, fold_constants
from repro.constraints.simplify_cache import simplify_system_cached
from repro.obs.metrics import REGISTRY
from repro.smtlite.formula import And, Atom, BoolConst, Formula

# ----------------------------------------------------------------------
# Process-wide incremental counters (one registry metric, event-labelled)
# ----------------------------------------------------------------------

#: Every event the scoped-delta machinery reports.  The snapshot always
#: materialises all of them (zeros included) so diffs between runs — and
#: between shards in the router's scatter-gather — stay shape-stable.
COUNTER_NAMES = (
    "scopes_pushed",
    "scopes_popped",
    "delta_constraints_simplified",
    "delta_constraints_dropped",
    "full_resimplifications_avoided",
    "base_simplifications",
    "cuts_promoted_to_base",
    "cores_learned",
    "cores_retained_across_pops",
    "pops_with_live_cores",
)

_METRIC = REGISTRY.counter(
    "repro_incremental_events_total",
    "Incremental constraint-IR events (scoped deltas, cut promotion, learned cores)",
)


def bump(counter: str, amount: int = 1) -> None:
    """Increment one process-wide incremental counter (thread-safe).

    A thin shim over the observability registry: the counter lives in
    :data:`repro.obs.metrics.REGISTRY` as
    ``repro_incremental_events_total{event=...}`` and is scraped through
    ``GET /metricsz``; this function (and :func:`incremental_statistics`
    below) keep the historical call surface for the stats op, the router
    scatter-gather and the bench snapshot.
    """
    _METRIC.inc(amount, event=counter)


def incremental_statistics() -> dict:
    """A snapshot of the process-wide incremental counters.

    ``core_retention_rate`` is derived: learned cores surviving pops per
    core learned — the fleet-operator signal the router's per-shard stats
    aggregation surfaces (a shard whose rate collapses is rebuilding state
    it should be reusing).
    """
    snapshot = {name: int(_METRIC.value(event=name)) for name in COUNTER_NAMES}
    learned = snapshot["cores_learned"]
    snapshot["core_retention_rate"] = (
        round(snapshot["cores_retained_across_pops"] / learned, 4) if learned else None
    )
    return snapshot


def reset_incremental_statistics() -> None:
    _METRIC.reset()


# ----------------------------------------------------------------------
# The persistent dedup/subsumption index
# ----------------------------------------------------------------------


class SimplifyIndex:
    """Duplicate and subsumption index over the *active* constraints.

    Mirrors passes 3 and 4 of :func:`repro.constraints.simplify.simplify_system`
    — exact-duplicate elimination plus strongest-constant subsumption among
    atoms sharing a coefficient vector — but online: each candidate is
    checked against the index in O(1) instead of a full O(n²) re-pass over
    base plus delta.  Scoped admissions are recorded on an undo trail, so
    :meth:`pop` restores the index exactly (the invariant the property
    tests check: an identical formula re-admitted after a pop is *not*
    treated as a duplicate of its popped twin).

    The online pass is deliberately one-directional: a delta constraint
    subsumed by an active one is dropped, but an already-asserted weaker
    constraint is not retracted when a stronger delta arrives (retraction
    is not expressible against a solver scope that may outlive this one).
    Keeping an implied constraint preserves equivalence, which is all the
    delta contract promises.
    """

    __slots__ = ("_seen", "_strongest", "_trail")

    #: Sentinel distinguishing "key was absent" from a stored constant.
    _ABSENT = object()

    def __init__(self) -> None:
        self._seen: set[Formula] = set()
        self._strongest: dict[frozenset, int] = {}
        self._trail: list[list[tuple]] = []

    def push(self) -> None:
        self._trail.append([])

    def pop(self) -> None:
        if not self._trail:
            raise RuntimeError("pop() without a matching push()")
        for kind, key, previous in reversed(self._trail.pop()):
            if kind == "seen":
                self._seen.discard(key)
            elif previous is SimplifyIndex._ABSENT:
                self._strongest.pop(key, None)
            else:
                self._strongest[key] = previous

    @property
    def depth(self) -> int:
        return len(self._trail)

    def __len__(self) -> int:
        return len(self._seen)

    def admit(self, formula: Formula) -> str:
        """Try to admit one (folded, non-And) formula into the active set.

        Returns ``"fresh"`` (assert it), ``"duplicate"`` (an identical
        constraint is active) or ``"subsumed"`` (an active atom with the
        same coefficient vector and a stronger constant implies it).
        """
        if formula in self._seen:
            return "duplicate"
        trail = self._trail[-1] if self._trail else None
        if isinstance(formula, Atom):
            key = frozenset(formula.expr.coefficients.items())
            constant = formula.expr.constant
            strongest = self._strongest.get(key, SimplifyIndex._ABSENT)
            if strongest is not SimplifyIndex._ABSENT and strongest >= constant:
                return "subsumed"
            if trail is not None:
                trail.append(("strongest", key, strongest))
            self._strongest[key] = constant
        self._seen.add(formula)
        if trail is not None:
            trail.append(("seen", formula, None))
        return "fresh"


# ----------------------------------------------------------------------
# The scoped simplifier
# ----------------------------------------------------------------------


@dataclass
class ScopeSavings:
    """Per-scope accounting of what the delta pass saved."""

    depth: int
    delta_in: int = 0
    admitted: int = 0
    folded: int = 0
    duplicates: int = 0
    subsumed: int = 0
    tightened: int = 0

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "delta_in": self.delta_in,
            "admitted": self.admitted,
            "folded": self.folded,
            "duplicates": self.duplicates,
            "subsumed": self.subsumed,
            "tightened": self.tightened,
        }


class ScopedSimplifier:
    """Incremental simplification of one scoped constraint system.

    The base system is simplified once (through the content-hash cache) and
    seeds the persistent :class:`SimplifyIndex`; every scope's delta is then
    normalised *alone* against that index.  ``self.system`` always holds the
    active scoped system — base plus the admitted deltas of the open scopes
    — so flattened equivalence can be checked (and asserted by tests) at any
    point of a trace.

    ``tighten_bounds`` controls what happens to single-variable delta atoms:
    with ``True`` they become scoped bound tightenings
    (:meth:`ConstraintSystem.tighten`, undone on pop); the verification
    loops keep it ``False`` because solver scopes cannot retract bounds.
    """

    def __init__(
        self,
        base: ConstraintSystem,
        tighten_bounds: bool = False,
        stats: SimplifyStats | None = None,
    ):
        self.tighten_bounds = tighten_bounds
        self.stats = stats if stats is not None else SimplifyStats()
        self.system = simplify_system_cached(
            base, tighten_bounds=tighten_bounds, simplifier=self.stats
        )
        self.index = SimplifyIndex()
        for formula in self.system.constraints:
            self.index.admit(formula)
        self.scope_savings: list[ScopeSavings] = []
        self._savings_stack: list[ScopeSavings] = []
        bump("base_simplifications")

    @property
    def depth(self) -> int:
        return self.system.scope_depth

    def push(self) -> None:
        self.system.push_scope()
        self.index.push()
        self._savings_stack.append(ScopeSavings(depth=self.depth))
        bump("scopes_pushed")

    def pop(self) -> None:
        self.system.pop_scope()
        self.index.pop()
        savings = self._savings_stack.pop()
        self.scope_savings.append(savings)
        bump("scopes_popped")
        bump("full_resimplifications_avoided")

    def declare(self, variable: str, lower: int | None = 0, upper: int | None = None) -> None:
        """Declare a delta variable *unscoped* (mirrors solver semantics).

        Solver backends do not retract variable declarations on pop, so
        delta-system bounds (e.g. the fresh existential variables of a
        compiled predicate) are declared at base level here too — the
        declared domain must match what the solver believes after any
        number of pops.
        """
        frame = self.system._scopes
        if frame:
            saved, self.system._scopes = frame, []
            try:
                self.system.declare(variable, lower, upper)
            finally:
                self.system._scopes = saved
        else:
            self.system.declare(variable, lower, upper)

    def add_delta(self, *formulas: Formula) -> list[Formula]:
        """Normalise a delta against the base and admit the survivors.

        Returns the formulas the caller must assert into its solver —
        folded, conjunction-split, with duplicates and subsumed constraints
        dropped (they are already implied by active assertions) and, when
        ``tighten_bounds`` is on, single-variable atoms turned into scoped
        bound tightenings instead.  A delta folding to FALSE is returned
        as the single FALSE constraint (the system is unsatisfiable in
        this scope).
        """
        savings = self._savings_stack[-1] if self._savings_stack else None
        admitted: list[Formula] = []
        queue: list[Formula] = []
        for formula in formulas:
            folded = fold_constants(formula)
            if isinstance(folded, And):
                queue.extend(folded.operands)
            else:
                queue.append(folded)
        self.stats.constraints_before += len(queue)
        if savings is not None:
            savings.delta_in += len(queue)
        bump("delta_constraints_simplified", len(queue))
        for formula in queue:
            if isinstance(formula, BoolConst):
                if formula.value:
                    self.stats.folded += 1
                    if savings is not None:
                        savings.folded += 1
                    continue
                # FALSE: the scope is unsatisfiable; record and surface it.
                self.stats.collapsed_to_false = True
                self.system.add(formula)
                self.stats.constraints_after += 1
                admitted.append(formula)
                continue
            if self.tighten_bounds and isinstance(formula, Atom):
                decoded = _single_variable_bound(formula)
                if decoded is not None:
                    name, value, is_upper = decoded
                    self.system.tighten(
                        name,
                        lower=None if is_upper else value,
                        upper=value if is_upper else None,
                    )
                    self.stats.bounds_tightened += 1
                    if savings is not None:
                        savings.tightened += 1
                    continue
            verdict = self.index.admit(formula)
            if verdict == "fresh":
                self.system.add(formula)
                self.stats.constraints_after += 1
                admitted.append(formula)
                if savings is not None:
                    savings.admitted += 1
            else:
                if verdict == "duplicate":
                    self.stats.duplicates_removed += 1
                    if savings is not None:
                        savings.duplicates += 1
                else:
                    self.stats.subsumed_removed += 1
                    if savings is not None:
                        savings.subsumed += 1
                bump("delta_constraints_dropped")
        return admitted

    def savings_summary(self) -> dict:
        """Aggregate per-scope savings (for statistics blocks)."""
        closed = self.scope_savings
        return {
            "scopes": len(closed),
            "delta_in": sum(s.delta_in for s in closed),
            "admitted": sum(s.admitted for s in closed),
            "duplicates": sum(s.duplicates for s in closed),
            "subsumed": sum(s.subsumed for s in closed),
            "folded": sum(s.folded for s in closed),
            "tightened": sum(s.tightened for s in closed),
        }
