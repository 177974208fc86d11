"""Theory solvers for conjunctions of linear integer constraints.

The DPLL(T) loop (:mod:`repro.smtlite.solver`) repeatedly asks: *is this
conjunction of linear constraints over integer variables satisfiable?*  and,
when it is not, *which small subset of the constraints is already
contradictory?* (the conflict core, which becomes a learned clause).

Two interchangeable backends are provided:

* :class:`ExactTheorySolver` — branch-and-bound over the exact rational
  simplex (pure Python, no dependencies, always available);
* :class:`ScipyTheorySolver` — scipy's HiGHS MILP solver
  (:mod:`repro.smtlite.scipy_backend`), much faster on larger systems.

Both re-verify candidate models with exact integer arithmetic before
returning them, so an inexact backend can never report a wrong "sat".
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.smtlite.branch_and_bound import ILPStatus, solve_integer_feasibility


@dataclass(frozen=True)
class TheoryConstraint:
    """The linear constraint ``sum coefficients * variables + constant <= 0``."""

    coefficients: tuple[tuple[str, int], ...]
    constant: int

    @classmethod
    def from_expr(cls, coefficients: Mapping[str, int], constant: int) -> "TheoryConstraint":
        items = tuple(sorted((name, int(value)) for name, value in coefficients.items() if value != 0))
        return cls(items, int(constant))

    def coefficient_dict(self) -> dict[str, int]:
        return dict(self.coefficients)

    def variables(self) -> set[str]:
        return {name for name, _ in self.coefficients}

    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        total = self.constant
        for name, value in self.coefficients:
            total += value * assignment.get(name, 0)
        return total <= 0

    def __repr__(self) -> str:
        terms = " + ".join(f"{value}*{name}" for name, value in self.coefficients) or "0"
        return f"TheoryConstraint({terms} + {self.constant} <= 0)"


Bounds = Mapping[str, tuple[int | None, int | None]]


@dataclass
class TheoryResult:
    """Outcome of a theory check."""

    satisfiable: bool
    model: dict[str, int] | None = None
    #: Indices (into the checked constraint sequence) of an unsatisfiable
    #: subset; always a valid core (possibly the full set) when unsat.
    core: list[int] | None = None
    statistics: dict[str, int] = field(default_factory=dict)


class TheoryError(RuntimeError):
    """Raised when no backend can decide a theory query."""


def verify_model(
    constraints: Sequence[TheoryConstraint], bounds: Bounds, model: Mapping[str, int]
) -> bool:
    """Exact check that ``model`` satisfies every constraint and bound."""
    for name, (lower, upper) in bounds.items():
        value = model.get(name, 0)
        if lower is not None and value < lower:
            return False
        if upper is not None and value > upper:
            return False
    return all(constraint.satisfied_by(model) for constraint in constraints)


class TheorySolverBase:
    """Interface of theory backends."""

    name = "base"

    def __init__(self) -> None:
        # The DPLL(T) loop re-poses near-identical conjunctions, so the
        # per-constraint ILP rows are assembled once and reused across calls.
        self._ilp_row_cache: dict[TheoryConstraint, tuple] = {}

    def check(self, constraints: Sequence[TheoryConstraint], bounds: Bounds) -> TheoryResult:
        raise NotImplementedError

    def is_satisfiable(self, constraints: Sequence[TheoryConstraint], bounds: Bounds) -> bool:
        """Plain feasibility test (no model, no conflict core).

        Used by core minimisation, where extracting (and recursively
        minimising) cores of every trial subset would multiply the work.
        Backends override this with their cheapest feasibility check.
        """
        return self.check(constraints, bounds).satisfiable

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _as_ilp(self, constraints: Sequence[TheoryConstraint]):
        cache = self._ilp_row_cache
        rows = []
        for constraint in constraints:
            row = cache.get(constraint)
            if row is None:
                row = (constraint.coefficient_dict(), "<=", -constraint.constant)
                cache[constraint] = row
            rows.append(row)
        return rows

    def minimize_core(
        self,
        constraints: Sequence[TheoryConstraint],
        bounds: Bounds,
        candidate: Sequence[int],
        max_checks: int = 64,
    ) -> list[int]:
        """Deletion-based minimisation of an unsatisfiable core.

        Starting from ``candidate`` (indices of an unsatisfiable subset), try
        to drop constraints one at a time while the remainder stays
        unsatisfiable.  Each test is one backend feasibility call;
        ``max_checks`` caps the effort for very large cores.
        """

        def unsatisfiable(trial: list[int]) -> bool:
            return not self.is_satisfiable([constraints[index] for index in trial], bounds)

        return deletion_shrink(candidate, unsatisfiable, max_checks)


def deletion_shrink(
    candidate: Sequence[int], unsatisfiable: Callable[[list[int]], bool], max_checks: int
) -> list[int]:
    """Drop indices of ``candidate`` one at a time while ``unsatisfiable`` holds.

    At most ``max_checks`` calls of ``unsatisfiable``; an index stays when
    the test of the rest fails.
    """
    core = list(candidate)
    if len(core) <= 1:
        return core
    checks = 0
    position = 0
    while position < len(core) and checks < max_checks:
        trial = core[:position] + core[position + 1 :]
        checks += 1
        if unsatisfiable(trial):
            core = trial
        else:
            position += 1
    return core


class ExactTheorySolver(TheorySolverBase):
    """Branch-and-bound over the exact rational simplex."""

    name = "exact"

    def __init__(self, max_nodes: int = 4000):
        super().__init__()
        self.max_nodes = max_nodes

    def is_satisfiable(self, constraints: Sequence[TheoryConstraint], bounds: Bounds) -> bool:
        result = solve_integer_feasibility(self._as_ilp(constraints), bounds, max_nodes=self.max_nodes)
        if result.status is ILPStatus.UNKNOWN:
            raise TheoryError("exact branch-and-bound exhausted its node budget")
        return result.status is ILPStatus.FEASIBLE

    def check(self, constraints: Sequence[TheoryConstraint], bounds: Bounds) -> TheoryResult:
        result = solve_integer_feasibility(
            self._as_ilp(constraints), bounds, max_nodes=self.max_nodes
        )
        if result.status is ILPStatus.FEASIBLE:
            model = dict(result.values or {})
            if not verify_model(constraints, bounds, model):  # pragma: no cover - exact backend
                raise TheoryError("exact backend produced a model that fails verification")
            return TheoryResult(True, model=model, statistics={"nodes": result.nodes_explored})
        if result.status is ILPStatus.INFEASIBLE:
            core = result.infeasible_rows if result.infeasible_rows else list(range(len(constraints)))
            core = [index for index in core if index < len(constraints)]
            if not core:
                core = list(range(len(constraints)))
            if len(core) < len(constraints):
                # Soundness: an invalid core would make the DPLL(T) loop learn
                # a wrong clause, so re-verify the subset before returning it.
                subset = [constraints[index] for index in core]
                verification = solve_integer_feasibility(
                    self._as_ilp(subset), bounds, max_nodes=self.max_nodes
                )
                if verification.status is not ILPStatus.INFEASIBLE:
                    core = list(range(len(constraints)))
            return TheoryResult(False, core=core, statistics={"nodes": result.nodes_explored})
        raise TheoryError(
            f"exact branch-and-bound exhausted its node budget ({self.max_nodes}) "
            "without deciding feasibility"
        )


def default_theory_solver(prefer: str = "auto") -> TheorySolverBase:
    """Pick a theory backend.

    ``prefer`` may be ``"exact"``, ``"scipy"`` or ``"auto"`` (scipy when
    importable, exact otherwise).
    """
    if prefer == "exact":
        return ExactTheorySolver()
    try:
        from repro.smtlite.scipy_backend import ScipyTheorySolver
    except ImportError:
        if prefer == "scipy":
            raise
        return ExactTheorySolver()
    if prefer in ("scipy", "auto"):
        return ScipyTheorySolver()
    raise ValueError(f"unknown theory backend preference {prefer!r}")
