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
* **how it is normalised** — :mod:`repro.constraints.incremental` folds
  constants and splits conjunctions, independently of any backend;
* **who solves it** — :mod:`repro.constraints.backends` turns a system into
  verdicts through the pluggable :class:`SolverBackend` registry.

A system is *satisfiable under an assignment* iff every variable respects
its declared bounds and every constraint evaluates to true.

A system is built once and asserted into a solver; the refinement loops
then add their per-query deltas to the solver's own push/pop scopes, so
the IR itself has no scopes.
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
    by a backend solver via :meth:`assert_into`, usually after the pass of
    :class:`repro.constraints.incremental.ScopedSimplifier`.
    """

    __slots__ = ("name", "bounds", "groups", "constraints")

    def __init__(self, name: str = ""):
        self.name = name
        self.bounds: dict[str, Bound] = {}
        self.groups: dict[str, tuple[str, ...]] = {}
        self.constraints: list[Formula] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def declare(
        self,
        variable: str,
        lower: int | None = 0,
        upper: int | None = None,
        group: str | None = None,
    ) -> LinearExpr:
        """Declare (or re-declare) a variable with bounds; returns its expression."""
        self.bounds[variable] = (lower, upper)
        if group is not None:
            members = self.groups.get(group, ())
            if variable not in members:
                self.groups[group] = members + (variable,)
        return LinearExpr.variable(variable)

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
        self.bounds.update(other.bounds)
        for group, members in other.groups.items():
            existing = self.groups.get(group, ())
            added = tuple(m for m in members if m not in existing)
            if added:
                self.groups[group] = existing + added
        self.constraints.extend(other.constraints)

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

        An empty domain (``lower > upper``) is asserted as FALSE: a solver
        only sees a variable's bounds through the constraints that mention
        it, so an otherwise unconstrained variable would hide the
        contradiction.
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
