"""The per-loop constraint pass, and the process-wide incremental counters.

The CEGAR loops of the verification layer pose hundreds of closely-related
queries per protocol against one persistent solver: a base block asserted
once, and one push/pop scope per pattern pair / layer bound whose delta is
a handful of constraints.  Every formula reaches the solver through one
cheap pass, :class:`ScopedSimplifier`:

* **constant folding** (:func:`fold_constants`) — boolean constants and
  constant atoms are folded recursively *without* otherwise rewriting the
  formula, so the CNF conversion sees the shapes the builders produce; the
  ``target_support`` cut ``Implies(And(..), FALSE)``, for example, reaches
  the solver as ``Not(And(..))``;
* **conjunction splitting** — a top-level ``And`` is asserted part by part;
* a part folding to TRUE is dropped, one folding to FALSE is kept (it makes
  the base, or the scope it is asserted in, unsatisfiable).

The pass is exactly satisfiability-preserving under evaluation: for every
total integer assignment, the normalised system is satisfied iff the
original is.  It removes nothing else: a duplicate or subsumed constraint
is asserted as it comes, because the builders produce none on the
benchmark workloads.

:func:`incremental_statistics` reports the process-wide counters the
solvers bump (learned cores, cores retained across pops, cuts promoted to
base level), surfaced through the ``stats`` serve op and ``GET /statsz``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.constraints.ir import ConstraintSystem
from repro.obs.metrics import REGISTRY
from repro.smtlite.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolConst,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    conjunction,
    disjunction,
)

# ----------------------------------------------------------------------
# Process-wide incremental counters (one registry metric, event-labelled)
# ----------------------------------------------------------------------

#: Every event the solvers and the refinement loops report.  The snapshot
#: always materialises all of them (zeros included) so diffs between runs
#: — and between shards in the router's scatter-gather — stay shape-stable.
COUNTER_NAMES = (
    "cuts_promoted_to_base",
    "cores_learned",
    "cores_retained_across_pops",
    "pops_with_live_cores",
)

_METRIC = REGISTRY.counter(
    "repro_incremental_events_total",
    "Incremental solving events (cut promotion, learned and retained cores)",
)


def bump(counter: str, amount: int = 1) -> None:
    """Increment one process-wide incremental counter (thread-safe).

    A thin shim over the observability registry: the counter lives in
    :data:`repro.obs.metrics.REGISTRY` as
    ``repro_incremental_events_total{event=...}`` and is scraped through
    ``GET /metricsz``; this function (and :func:`incremental_statistics`
    below, the stats op's ``incremental`` block) keep the call surface of
    the solvers and the refinement loops.
    """
    _METRIC.inc(amount, event=counter)


def incremental_statistics() -> dict:
    """A snapshot of the process-wide incremental counters.

    ``core_retention_rate`` is derived: learned cores surviving pops per
    core learned — the fleet-operator signal the router's per-shard stats
    aggregation surfaces (a shard whose rate collapses is rebuilding state
    it should be reusing).
    """
    snapshot = _METRIC.counts(COUNTER_NAMES)
    learned = snapshot["cores_learned"]
    snapshot["core_retention_rate"] = (
        round(snapshot["cores_retained_across_pops"] / learned, 4) if learned else None
    )
    return snapshot


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------


def fold_constants(formula: Formula) -> Formula:
    """Recursively fold boolean constants, preserving formula structure."""
    if isinstance(formula, Atom):
        if formula.expr.is_constant():
            return TRUE if formula.expr.constant <= 0 else FALSE
        return formula
    if isinstance(formula, Not):
        inner = fold_constants(formula.operand)
        if isinstance(inner, BoolConst):
            return FALSE if inner.value else TRUE
        return formula if inner is formula.operand else Not(inner)
    if isinstance(formula, And):
        return conjunction([fold_constants(operand) for operand in formula.operands])
    if isinstance(formula, Or):
        return disjunction([fold_constants(operand) for operand in formula.operands])
    if isinstance(formula, Implies):
        antecedent = fold_constants(formula.antecedent)
        consequent = fold_constants(formula.consequent)
        if isinstance(antecedent, BoolConst):
            return consequent if antecedent.value else TRUE
        if isinstance(consequent, BoolConst):
            if consequent.value:
                return TRUE
            return fold_constants(Not(antecedent))
        if antecedent is formula.antecedent and consequent is formula.consequent:
            return formula
        return Implies(antecedent, consequent)
    if isinstance(formula, Iff):
        left = fold_constants(formula.left)
        right = fold_constants(formula.right)
        if isinstance(left, BoolConst):
            return right if left.value else fold_constants(Not(right))
        if isinstance(right, BoolConst):
            return left if right.value else fold_constants(Not(left))
        if left is formula.left and right is formula.right:
            return formula
        return Iff(left, right)
    return formula  # BoolConst, BoolVar


@dataclass
class SimplifyStats:
    """What the pass saw: split parts in, parts kept, parts folded to TRUE."""

    constraints_before: int = 0
    constraints_after: int = 0
    folded: int = 0

    def to_dict(self) -> dict:
        return {
            "before": self.constraints_before,
            "after": self.constraints_after,
            "folded": self.folded,
        }


class ScopedSimplifier:
    """Constant folding and conjunction splitting for one refinement loop.

    ``self.system`` is the normalised base (same name, bounds and groups as
    ``base``); :meth:`add_delta` normalises each later block the loop
    asserts, at base level or inside a solver scope.  ``self.stats``
    counts over both.
    """

    def __init__(self, base: ConstraintSystem):
        self.stats = SimplifyStats()
        self.system = ConstraintSystem(base.name)
        self.system.bounds = dict(base.bounds)
        self.system.groups = dict(base.groups)
        self.system.constraints = self._normalise(base.constraints)

    def add_delta(self, *formulas: Formula) -> list[Formula]:
        """The formulas the caller must assert for this delta, in order."""
        return self._normalise(formulas)

    def _normalise(self, formulas: Iterable[Formula]) -> list[Formula]:
        parts: list[Formula] = []
        for formula in formulas:
            folded = fold_constants(formula)
            if isinstance(folded, And):
                parts.extend(folded.operands)
            else:
                parts.append(folded)
        kept = [part for part in parts if part != TRUE]
        self.stats.constraints_before += len(parts)
        self.stats.constraints_after += len(kept)
        self.stats.folded += len(parts) - len(kept)
        return kept
