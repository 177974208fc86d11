"""A solver-agnostic intermediate representation of constraint systems.

Every verification procedure of the paper ultimately poses the same kind of
question: *is this typed system of linear integer constraints satisfiable?*
Before this module existed each procedure assembled its formulas directly
against one concrete solver object; the IR separates the three concerns:

* **what the system says** — a :class:`ConstraintSystem`: integer variables
  with bounds, organised into *named groups* (``"config:c0"``,
  ``"flow:x1"``, ``"input"``, ...), plus a conjunction of
  :class:`~repro.smtlite.formula.Formula` constraints over them.  The
  formula AST of :mod:`repro.smtlite.formula` is deliberately reused — it
  is a pure syntax layer with no solving machinery — so the IR adds
  structure (variables, bounds, groups, block provenance) rather than a
  parallel expression language;
* **how it is simplified** — :mod:`repro.constraints.simplify` normalises a
  system (constant folding, bound tightening, duplicate and subsumed
  constraint elimination) independently of any backend;
* **who solves it** — :mod:`repro.constraints.backends` turns a system into
  verdicts through the pluggable :class:`SolverBackend` registry.

A system is *satisfiable under an assignment* iff every variable respects
its declared bounds and every constraint evaluates to true; bounds are part
of the system's meaning, which is what lets the simplifier move
single-variable constraints into bounds without changing satisfiability.

Systems support true push/pop (:meth:`ConstraintSystem.push_scope` /
:meth:`ConstraintSystem.pop_scope`): everything asserted, declared or
tightened inside a scope is recorded on an undo trail and retracted exactly
on pop, so the CEGAR refinement loops can reuse one system across many
closely-related queries instead of rebuilding it per scope.  The scoped
form is what :class:`repro.constraints.incremental.ScopedSimplifier`
normalises delta-by-delta against a persistent dedup/subsumption index.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.smtlite.formula import FALSE, Formula, conjunction
from repro.smtlite.terms import LinearExpr

Bound = tuple[int | None, int | None]

#: The default domain of IR variables — the natural numbers, as everywhere
#: in the paper (configurations, flows and inputs are all counts).
DEFAULT_BOUND: Bound = (0, None)


class ConstraintSystem:
    """A typed system of linear integer constraints with named variable groups.

    The system is mutable while being built (the builders of
    :mod:`repro.constraints.builders` append blocks to it) and is consumed
    either by :func:`repro.constraints.simplify.simplify_system` or by a
    backend solver via :meth:`assert_into`.
    """

    __slots__ = ("name", "bounds", "groups", "constraints", "_scopes")

    def __init__(self, name: str = ""):
        self.name = name
        self.bounds: dict[str, Bound] = {}
        self.groups: dict[str, tuple[str, ...]] = {}
        self.constraints: list[Formula] = []
        #: Undo trail of the open scopes: each frame records the constraint
        #: count at push time plus the *previous* value (``None`` = absent)
        #: of every bound/group entry first touched inside the scope.
        self._scopes: list[dict] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _record_bound(self, variable: str) -> None:
        if self._scopes:
            self._scopes[-1]["bounds"].setdefault(variable, self.bounds.get(variable))

    def _record_group(self, group: str) -> None:
        if self._scopes:
            self._scopes[-1]["groups"].setdefault(group, self.groups.get(group))

    def declare(
        self,
        variable: str,
        lower: int | None = 0,
        upper: int | None = None,
        group: str | None = None,
    ) -> LinearExpr:
        """Declare (or re-declare) a variable with bounds; returns its expression."""
        self._record_bound(variable)
        self.bounds[variable] = (lower, upper)
        if group is not None:
            members = self.groups.get(group, ())
            if variable not in members:
                self._record_group(group)
                self.groups[group] = members + (variable,)
        return LinearExpr.variable(variable)

    def tighten(
        self, variable: str, lower: int | None = None, upper: int | None = None
    ) -> Bound:
        """Intersect a variable's bounds with ``[lower, upper]`` (scoped, undoable).

        ``None`` leaves the corresponding side untouched.  Unlike
        :meth:`declare` — which *replaces* bounds — tightening can only
        shrink the domain, which is what makes it sound to apply inside a
        retractable scope and undo on pop.  Returns the new bound.
        """
        old_lower, old_upper = self.bounds.get(variable, DEFAULT_BOUND)
        new_lower = old_lower if lower is None else (lower if old_lower is None else max(old_lower, lower))
        new_upper = old_upper if upper is None else (upper if old_upper is None else min(old_upper, upper))
        self._record_bound(variable)
        self.bounds[variable] = (new_lower, new_upper)
        return (new_lower, new_upper)

    def declare_group(
        self,
        group: str,
        variables: Iterable[str],
        lower: int | None = 0,
        upper: int | None = None,
    ) -> dict[str, LinearExpr]:
        """Declare a whole named group at once; returns name -> expression."""
        return {name: self.declare(name, lower, upper, group=group) for name in variables}

    def add(self, *formulas: Formula) -> None:
        """Append constraints (conjunctively).  Top-level conjunctions are split."""
        from repro.smtlite.formula import And

        for formula in formulas:
            if not isinstance(formula, Formula):
                raise TypeError(f"expected a Formula, got {formula!r}")
            if isinstance(formula, And):
                self.constraints.extend(formula.operands)
            else:
                self.constraints.append(formula)

    def merge(self, other: "ConstraintSystem") -> None:
        """Absorb another system: bounds, groups and constraints."""
        for variable, bound in other.bounds.items():
            self._record_bound(variable)
            self.bounds[variable] = bound
        for group, members in other.groups.items():
            existing = self.groups.get(group, ())
            added = tuple(m for m in members if m not in existing)
            if added:
                self._record_group(group)
                self.groups[group] = existing + added
        self.constraints.extend(other.constraints)

    # ------------------------------------------------------------------
    # Scoped deltas
    # ------------------------------------------------------------------

    def push_scope(self) -> None:
        """Open a retractable scope: later adds/declares/tightens undo on pop."""
        self._scopes.append({"mark": len(self.constraints), "bounds": {}, "groups": {}})

    def pop_scope(self) -> None:
        """Retract the innermost scope exactly (constraints, bounds, groups).

        The invariant the incremental simplifier and the property-based
        tests rely on: after pop, the system is *identical* to its state at
        the matching push — no constraint, bound or group entry leaks.
        """
        if not self._scopes:
            raise RuntimeError("pop_scope() without a matching push_scope()")
        frame = self._scopes.pop()
        del self.constraints[frame["mark"]:]
        for variable, previous in frame["bounds"].items():
            if previous is None:
                self.bounds.pop(variable, None)
            else:
                self.bounds[variable] = previous
        for group, previous in frame["groups"].items():
            if previous is None:
                self.groups.pop(group, None)
            else:
                self.groups[group] = previous

    @property
    def scope_depth(self) -> int:
        return len(self._scopes)

    def scope_marks(self) -> tuple[int, ...]:
        """Constraint-count marks of the open scopes (the system's scope shape).

        Part of the simplify-cache key: a scoped system must never collide
        with a from-scratch system of identical flattened content, because
        the scoped one can still be popped back below the shared prefix.
        """
        return tuple(frame["mark"] for frame in self._scopes)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.constraints)

    def group(self, name: str) -> tuple[str, ...]:
        return self.groups.get(name, ())

    def variables(self) -> frozenset[str]:
        """Declared variables plus every variable mentioned by a constraint."""
        names = set(self.bounds)
        for formula in self.constraints:
            names.update(formula.int_variables())
        return frozenset(names)

    def bound_of(self, variable: str) -> Bound:
        return self.bounds.get(variable, DEFAULT_BOUND)

    def conjunction(self) -> Formula:
        """The whole system as one formula (bounds not included)."""
        return conjunction(list(self.constraints))

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        """Satisfaction under a total integer assignment, *including* bounds.

        Undeclared variables carry the default natural-number bound, so an
        assignment giving them a negative value falsifies the system.
        """
        for variable in self.variables():
            value = assignment.get(variable, 0)
            lower, upper = self.bound_of(variable)
            if lower is not None and value < lower:
                return False
            if upper is not None and value > upper:
                return False
        return all(formula.evaluate(assignment) for formula in self.constraints)

    # ------------------------------------------------------------------
    # Handing the system to a solver
    # ------------------------------------------------------------------

    def assert_into(self, solver) -> None:
        """Declare every bound and assert every constraint into a backend solver.

        ``solver`` is any object implementing the
        :class:`~repro.constraints.backends.ConstraintSolver` protocol
        (``int_var`` + ``add``); both the smtlite DPLL(T) solver and the
        direct-ILP solver qualify.

        Default-bound variables are *not* declared: ``(0, None)`` is every
        solver's implicit domain already, and explicitly declaring a
        variable makes the solver mention it in every theory query — extra
        columns that perturb (without changing) the answers.

        An empty domain (``lower > upper``, e.g. after :meth:`tighten`) is
        asserted as FALSE: a solver only sees a variable's bounds through
        the constraints that mention it, so an otherwise unconstrained
        variable would hide the contradiction.
        """
        for variable, (lower, upper) in self.bounds.items():
            if (lower, upper) == DEFAULT_BOUND:
                continue
            solver.int_var(variable, lower=lower, upper=upper)
            if lower is not None and upper is not None and lower > upper:
                solver.add(FALSE)
        for formula in self.constraints:
            solver.add(formula)

    def __repr__(self) -> str:
        return (
            f"ConstraintSystem({self.name!r}, {len(self.bounds)} var(s), "
            f"{len(self.groups)} group(s), {len(self.constraints)} constraint(s))"
        )
