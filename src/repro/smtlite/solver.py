"""Lazy DPLL(T) solver for quantifier-free linear integer arithmetic.

The solver combines the CDCL SAT engine (:mod:`repro.smtlite.sat`) with a
theory solver for conjunctions of linear integer constraints
(:mod:`repro.smtlite.theory`) in the classical *lemmas on demand* style:

1. formulas are converted to CNF over fresh propositional variables, one per
   arithmetic atom (:mod:`repro.smtlite.cnf`);
2. the SAT solver proposes a complete boolean assignment;
3. the conjunction of arithmetic atoms implied by the assignment is checked
   by the theory backend;
4. on theory conflict, a blocking clause built from the conflict core is
   learned and the loop continues; on theory success the arithmetic model is
   returned.

Incrementality
--------------

The solver is built for the re-posing workloads of the verification layer
(CEGAR refinement, layer-bound sweeps, terminal-pattern enumeration):

* only the atoms asserted *positively* by the boolean model are shipped to
  the theory backend.  The polarity-aware CNF conversion guarantees that
  arithmetic atoms occur only positively in problem clauses, so this
  restriction is sound and keeps the theory conjunctions small;
* theory-check results are memoized keyed on the frozen constraint set (and
  bounds), so near-identical conjunctions posed across refinement rounds and
  :meth:`push`/:meth:`pop` scopes are answered from cache;
* :meth:`push`/:meth:`pop` implement retractable assertions via fresh guard
  literals (clauses of a scope are implied by its guard; popping disables
  the guard permanently while learned lemmas survive);
* :meth:`check` accepts *assumptions* — formulas temporarily assumed for a
  single call without touching the asserted state.

Every model is re-checked against all active formulas with exact integer
arithmetic before it is handed to the caller.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum

from repro.smtlite.cnf import CNFConverter
from repro.smtlite.formula import And, Atom, BoolConst, BoolVar, Formula, Not
from repro.smtlite.sat import SatSolver
from repro.smtlite.terms import IntVar, LinearExpr
from repro.smtlite.theory import (
    TheoryConstraint,
    TheoryError,
    TheoryResult,
    TheorySolverBase,
    default_theory_solver,
)


class SolverStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class Model:
    """A satisfying assignment: integer values plus boolean values."""

    def __init__(self, ints: dict[str, int], bools: dict[str, bool]):
        self._ints = dict(ints)
        self._bools = dict(bools)

    def value(self, item: LinearExpr | str) -> int:
        """Value of an integer variable (by name) or of a linear expression."""
        if isinstance(item, str):
            return self._ints.get(item, 0)
        return item.evaluate({name: self._ints.get(name, 0) for name in item.variables()})

    def bool_value(self, name: str) -> bool:
        return self._bools.get(name, False)

    def ints(self) -> dict[str, int]:
        return dict(self._ints)

    def bools(self) -> dict[str, bool]:
        return dict(self._bools)

    def __repr__(self) -> str:
        return f"Model(ints={self._ints!r}, bools={self._bools!r})"


@dataclass
class SolverResult:
    status: SolverStatus
    model: Model | None = None
    statistics: dict[str, int] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status is SolverStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SolverStatus.UNSAT


@dataclass
class _Scope:
    """One :meth:`Solver.push` level: a guard literal and its formulas."""

    guard_var: int
    formulas: list[Formula] = field(default_factory=list)


class Solver:
    """DPLL(T) solver over linear integer arithmetic.

    Integer variables default to the natural numbers (lower bound 0), which
    is the domain used throughout the paper; different bounds can be declared
    with :meth:`int_var`.
    """

    def __init__(
        self,
        theory: TheorySolverBase | str = "auto",
        max_theory_iterations: int = 200_000,
    ):
        self._converter = CNFConverter()
        self._sat = SatSolver()
        if isinstance(theory, str):
            self._theory = default_theory_solver(theory)
        else:
            self._theory = theory
        self._bounds: dict[str, tuple[int | None, int | None]] = {}
        self._formulas: list[Formula] = []
        self._scopes: list[_Scope] = []
        self._trivially_unsat = False
        self._max_theory_iterations = max_theory_iterations
        # Memoized theory checks, keyed on the frozen constraint set + bounds.
        # Bounded FIFO: the solver now lives for a whole verification run, so
        # entries (including model dicts) must not accumulate indefinitely.
        self._theory_cache: dict[tuple, tuple] = {}
        self._max_theory_cache = 4096
        # Known-unsatisfiable cores with the bounds of their variables at
        # learn time: a superset conjunction posed under the same bounds for
        # those variables is unsat too.  (Bounded: the subsumption scan is
        # linear in the number of cores.)
        self._known_cores: list[tuple[frozenset[TheoryConstraint], dict]] = []
        self._max_known_cores = 256
        # TheoryConstraint per atom (the conversion is pure, so cache it).
        self._atom_constraint: dict[int, TheoryConstraint] = {}
        # Guard literal per assumption formula that needed Tseitin clauses.
        self._assumption_guards: dict[Formula, int] = {}
        self.statistics = {
            "sat_rounds": 0,
            "theory_conflicts": 0,
            "theory_checks": 0,
            "theory_cache_hits": 0,
            "theory_cache_misses": 0,
            "pushes": 0,
            "pops": 0,
            # Lemma/core retention across scopes: cores are
            # content+bounds-keyed, so they stay valid across pops and are
            # deliberately kept.
            "cores_learned": 0,
            "cores_retained_across_pops": 0,
        }

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def int_var(
        self, name: str, lower: int | None = 0, upper: int | None = None
    ) -> LinearExpr:
        """Declare (or re-declare) an integer variable with bounds and return it."""
        self._bounds[name] = (lower, upper)
        return IntVar(name)

    def int_vars(self, names: Iterable[str], lower: int | None = 0, upper: int | None = None) -> list[LinearExpr]:
        return [self.int_var(name, lower, upper) for name in names]

    def add(self, *formulas: Formula) -> None:
        """Assert one or more formulas (conjunctively).

        Inside a :meth:`push` scope the formulas are retractable: they hold
        until the matching :meth:`pop`.
        """
        guard = self._scopes[-1].guard_var if self._scopes else None
        for formula in formulas:
            if not isinstance(formula, Formula):
                raise TypeError(f"expected a Formula, got {formula!r}")
            if guard is None:
                self._formulas.append(formula)
            else:
                self._scopes[-1].formulas.append(formula)
            self._add_clauses(formula, guard)
            if self._trivially_unsat:
                return

    def _add_clauses(self, formula: Formula, guard: int | None) -> None:
        """Convert ``formula`` to CNF and assert it (guarded when requested)."""
        clauses, trivially_false = self._converter.convert(formula)
        if trivially_false:
            if guard is None:
                self._trivially_unsat = True
                return
            clauses = [[]]
        self._sat.ensure_vars(self._converter.variable_count)
        for clause in clauses:
            literals = clause if guard is None else [-guard, *clause]
            if not self._sat.add_clause(literals):
                self._trivially_unsat = True
                return

    # ------------------------------------------------------------------
    # Incremental interface
    # ------------------------------------------------------------------

    def push(self) -> None:
        """Open a retractable assertion scope."""
        guard = self._converter.fresh_var()
        self._sat.ensure_vars(self._converter.variable_count)
        self._scopes.append(_Scope(guard_var=guard))
        self.statistics["pushes"] += 1

    def pop(self) -> None:
        """Retract every formula asserted since the matching :meth:`push`.

        Learned lemmas (SAT clauses and cached theory results) survive: the
        scope's clauses are disabled by pinning its guard literal false.
        """
        if not self._scopes:
            raise RuntimeError("pop() without a matching push()")
        scope = self._scopes.pop()
        self._sat.add_clause([-scope.guard_var])
        self.statistics["pops"] += 1
        if self._known_cores:
            retained = len(self._known_cores)
            self.statistics["cores_retained_across_pops"] += retained
            from repro.constraints.incremental import bump

            bump("cores_retained_across_pops", retained)
            bump("pops_with_live_cores")

    @property
    def num_scopes(self) -> int:
        return len(self._scopes)

    @property
    def theory_name(self) -> str:
        """The theory solver in use: ``"scipy"`` (HiGHS) or ``"exact"``."""
        return self._theory.name

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def check(self, assumptions: Sequence[Formula] = ()) -> SolverResult:
        """Decide satisfiability of the asserted formulas.

        ``assumptions`` are formulas assumed true for this call only; a
        subsequent :meth:`check` without them is unaffected.
        """
        if self._trivially_unsat:
            return SolverResult(SolverStatus.UNSAT, statistics=dict(self.statistics))

        assumption_formulas: list[Formula] = []
        sat_assumptions: list[int] = [scope.guard_var for scope in self._scopes]
        for formula in assumptions:
            literal = self._assumption_literal(formula)
            if literal is None:
                continue  # trivially true assumption
            if literal is False:
                return SolverResult(SolverStatus.UNSAT, statistics=dict(self.statistics))
            sat_assumptions.append(literal)
            assumption_formulas.append(formula)

        for _ in range(self._max_theory_iterations):
            self.statistics["sat_rounds"] += 1
            sat_answer = self._sat.solve(assumptions=sat_assumptions)
            if sat_answer is False:
                return SolverResult(SolverStatus.UNSAT, statistics=dict(self.statistics))
            if sat_answer is None:  # pragma: no cover - no conflict budget is set
                return SolverResult(SolverStatus.UNKNOWN, statistics=dict(self.statistics))

            asserted, literals = self._asserted_constraints()
            bounds = self._effective_bounds(asserted)
            self.statistics["theory_checks"] += 1
            try:
                theory_result = self._cached_theory_check(asserted, bounds)
            except TheoryError:
                return SolverResult(SolverStatus.UNKNOWN, statistics=dict(self.statistics))

            if theory_result.satisfiable:
                model = self._build_model(theory_result.model or {})
                self._verify_model(model, assumption_formulas)
                return SolverResult(SolverStatus.SAT, model=model, statistics=dict(self.statistics))

            self.statistics["theory_conflicts"] += 1
            core = theory_result.core or list(range(len(asserted)))
            blocking_clause = [-literals[index] for index in core]
            if not blocking_clause:
                return SolverResult(SolverStatus.UNSAT, statistics=dict(self.statistics))
            if not self._sat.add_clause(blocking_clause):
                return SolverResult(SolverStatus.UNSAT, statistics=dict(self.statistics))
        return SolverResult(SolverStatus.UNKNOWN, statistics=dict(self.statistics))

    def check_conjunction(self, formulas: Iterable[Formula]) -> SolverResult:
        """Decide a pure conjunction of atoms with a single (cached) theory call.

        The formulas must be conjunctive (atoms, conjunctions of atoms and
        boolean constants); no SAT search is involved, so this is the cheap
        path for feasibility pre-filtering.  The query goes through the same
        memo cache as the DPLL(T) loop, so re-posed conjunctions — e.g. the
        shared side of many terminal-pattern pairs — are answered instantly.
        Asserted formulas are *not* taken into account.
        """
        atoms: list[Atom] = []
        stack = list(formulas)
        while stack:
            formula = stack.pop()
            if isinstance(formula, Atom):
                atoms.append(formula)
            elif isinstance(formula, BoolConst):
                if not formula.value:
                    return SolverResult(SolverStatus.UNSAT, statistics=dict(self.statistics))
            elif isinstance(formula, And):
                stack.extend(formula.operands)
            else:
                raise TypeError(f"check_conjunction expects conjunctive formulas, got {formula!r}")

        constraints = []
        for atom in atoms:
            expr = atom.expr
            constraints.append(TheoryConstraint.from_expr(expr.coefficients, expr.constant))
        bounds = self._effective_bounds(constraints)
        self.statistics["theory_checks"] += 1
        try:
            result = self._cached_theory_check(constraints, bounds)
        except TheoryError:
            return SolverResult(SolverStatus.UNKNOWN, statistics=dict(self.statistics))
        if result.satisfiable:
            return SolverResult(
                SolverStatus.SAT,
                model=Model(result.model or {}, {}),
                statistics=dict(self.statistics),
            )
        return SolverResult(SolverStatus.UNSAT, statistics=dict(self.statistics))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _assumption_literal(self, formula: Formula) -> int | None | bool:
        """SAT literal equivalent to assuming ``formula`` for one check.

        Returns ``None`` for trivially true assumptions and ``False`` for
        trivially false ones.  Literal-shaped formulas map directly onto
        their propositional variable; anything else is encoded once behind a
        fresh guard literal (cached per formula).
        """
        if not isinstance(formula, Formula):
            raise TypeError(f"assumptions must be formulas, got {formula!r}")
        if isinstance(formula, BoolConst):
            return None if formula.value else False
        if isinstance(formula, Atom):
            literal = self._converter.var_for_atom(formula)
            self._sat.ensure_vars(self._converter.variable_count)
            return literal
        if isinstance(formula, BoolVar):
            literal = self._converter.var_for_boolvar(formula.name)
            self._sat.ensure_vars(self._converter.variable_count)
            return literal
        if isinstance(formula, Not) and isinstance(formula.operand, BoolVar):
            literal = self._converter.var_for_boolvar(formula.operand.name)
            self._sat.ensure_vars(self._converter.variable_count)
            return -literal
        guard = self._assumption_guards.get(formula)
        if guard is None:
            guard = self._converter.fresh_var()
            self._sat.ensure_vars(self._converter.variable_count)
            self._assumption_guards[formula] = guard
            self._add_clauses(formula, guard)
        return guard

    def _asserted_constraints(self) -> tuple[list[TheoryConstraint], list[int]]:
        """Theory constraints asserted positively by the SAT model.

        The CNF conversion is polarity-aware and negation normal form absorbs
        arithmetic negation into the atoms, so atoms occur only positively in
        problem clauses; the conjunction of the *true* atoms is therefore all
        the theory backend needs to see.  (Blocking clauses introduce
        negative occurrences, but they are theory-valid and hence satisfied
        by every arithmetic model.)
        """
        constraints: list[TheoryConstraint] = []
        literals: list[int] = []
        atom_constraint = self._atom_constraint
        model_value = self._sat.model_value
        for atom, variable in self._converter.atom_to_var.items():
            if not model_value(variable, default=False):
                continue
            constraint = atom_constraint.get(variable)
            if constraint is None:
                expr = atom.expr
                constraint = TheoryConstraint.from_expr(expr.coefficients, expr.constant)
                atom_constraint[variable] = constraint
            constraints.append(constraint)
            literals.append(variable)
        return constraints, literals

    def _cached_theory_check(
        self, constraints: list[TheoryConstraint], bounds: dict[str, tuple[int | None, int | None]]
    ) -> TheoryResult:
        """Theory check with memoization on the frozen constraint set.

        Two reuse layers, both exact:

        1. identical conjunctions are answered from the memo table — this is
           what makes the re-posed side skeletons of the verification layer
           (pattern pre-checks, layer sweeps) near-free;
        2. a conjunction containing a known unsatisfiable core is unsat
           (subsumption; mostly relevant for :meth:`check_conjunction`
           queries, which bypass the SAT engine's blocking clauses).
        """
        constraint_set = frozenset(constraints)
        key = (constraint_set, frozenset(bounds.items()))
        cached = self._theory_cache.get(key)
        if cached is not None:
            self.statistics["theory_cache_hits"] += 1
            satisfiable, payload = cached
            if satisfiable:
                return TheoryResult(True, model=dict(payload))
            return TheoryResult(False, core=self._core_indices(constraints, payload))

        for core, core_bounds in self._known_cores:
            # The core's infeasibility depends only on the bounds of its own
            # variables, which may have been re-declared since it was learned.
            if core <= constraint_set and all(
                bounds.get(name, (0, None)) == bound for name, bound in core_bounds.items()
            ):
                self.statistics["theory_cache_hits"] += 1
                if len(self._theory_cache) >= self._max_theory_cache:
                    self._theory_cache.pop(next(iter(self._theory_cache)))
                self._theory_cache[key] = (False, core)
                return TheoryResult(False, core=self._core_indices(constraints, core))

        self.statistics["theory_cache_misses"] += 1
        result = self._theory.check(constraints, bounds)
        if len(self._theory_cache) >= self._max_theory_cache:
            self._theory_cache.pop(next(iter(self._theory_cache)))
        if result.satisfiable:
            self._theory_cache[key] = (True, dict(result.model or {}))
        else:
            core_indices = result.core or range(len(constraints))
            core_constraints = frozenset(constraints[index] for index in core_indices)
            self._theory_cache[key] = (False, core_constraints)
            if len(self._known_cores) < self._max_known_cores:
                core_bounds = {
                    name: bounds.get(name, (0, None))
                    for constraint in core_constraints
                    for name, _ in constraint.coefficients
                }
                self._known_cores.append((core_constraints, core_bounds))
                self.statistics["cores_learned"] += 1
                from repro.constraints.incremental import bump

                bump("cores_learned")
        return result

    @staticmethod
    def _core_indices(
        constraints: list[TheoryConstraint], core: frozenset[TheoryConstraint]
    ) -> list[int] | None:
        index_of: dict[TheoryConstraint, int] = {}
        for index, constraint in enumerate(constraints):
            index_of.setdefault(constraint, index)
        indices = sorted(index_of[constraint] for constraint in core if constraint in index_of)
        return indices or None

    def _effective_bounds(
        self, constraints: list[TheoryConstraint]
    ) -> dict[str, tuple[int | None, int | None]]:
        bounds = dict(self._bounds)
        for constraint in constraints:
            # Iterate the (sorted) coefficient tuples rather than the
            # variables() set: the insertion order determines the backend's
            # column order, and hash-randomized iteration would make solver
            # trajectories — and run times — vary wildly between processes.
            for name, _ in constraint.coefficients:
                bounds.setdefault(name, (0, None))
        return bounds

    def _active_formulas(self) -> Iterable[Formula]:
        yield from self._formulas
        for scope in self._scopes:
            yield from scope.formulas

    def _build_model(self, ints: dict[str, int]) -> Model:
        values = dict(ints)
        for formula in self._active_formulas():
            for name in formula.int_variables():
                if name not in values:
                    lower, upper = self._bounds.get(name, (0, None))
                    if lower is not None:
                        values[name] = int(lower)
                    elif upper is not None and upper < 0:
                        values[name] = int(upper)
                    else:
                        values[name] = 0
        bools = {
            name: self._sat.model_value(variable, default=False)
            for name, variable in self._converter.boolvar_to_var.items()
        }
        return Model(values, bools)

    def _verify_model(self, model: Model, assumptions: Sequence[Formula] = ()) -> None:
        """Exact sanity check: every active formula holds in the model."""
        ints = model.ints()
        bools = model.bools()
        for formula in list(self._active_formulas()) + list(assumptions):
            if not formula.evaluate(ints, bools):
                raise RuntimeError(
                    "internal error: the produced model does not satisfy an asserted formula; "
                    f"formula={formula!r}"
                )
