"""Tests for the constraint IR and its folding pass.

The property-based part checks the pass's contract on randomly generated
systems: for random integer assignments the normalised system (bounds +
constraints) evaluates exactly like the original, and a solver reaches the
same verdict on both.
"""

from __future__ import annotations

import random

import pytest

from repro.constraints import ConstraintSystem
from repro.constraints.incremental import ScopedSimplifier, fold_constants
from repro.smtlite.formula import FALSE, TRUE, Implies, Not, Or, conjunction
from repro.smtlite.solver import Solver, SolverStatus
from repro.smtlite.terms import IntVar, LinearExpr


class TestConstraintSystem:
    def test_declare_groups_and_bounds(self):
        system = ConstraintSystem("s")
        x = system.declare("x", lower=0, upper=5, group="config")
        system.declare("y", group="config")
        system.declare("z", group="flow")
        assert system.group("config") == ("x", "y")
        assert system.group("flow") == ("z",)
        assert system.bound_of("x") == (0, 5)
        assert system.bound_of("unknown") == (0, None)
        assert isinstance(x, LinearExpr)

    def test_add_splits_top_level_conjunctions(self):
        x, y = IntVar("x"), IntVar("y")
        system = ConstraintSystem()
        system.add((x >= 1) & (y >= 2))
        assert len(system) == 2

    def test_evaluate_includes_bounds(self):
        x = IntVar("x")
        system = ConstraintSystem()
        system.declare("x", lower=0, upper=3)
        system.add(x >= 1)
        assert system.evaluate({"x": 2})
        assert not system.evaluate({"x": 0})  # constraint violated
        assert not system.evaluate({"x": 5})  # bound violated
        assert not system.evaluate({"x": -1})

    def test_merge_combines_groups_and_constraints(self):
        first = ConstraintSystem()
        first.declare("a", group="g")
        first.add(IntVar("a") >= 1)
        second = ConstraintSystem()
        second.declare("b", group="g")
        second.add(IntVar("b") >= 2)
        first.merge(second)
        assert first.group("g") == ("a", "b")
        assert len(first) == 2

    def test_assert_into_skips_default_bounds(self):
        system = ConstraintSystem()
        system.declare("x")  # default (0, None)
        system.declare("y", lower=1, upper=4)
        system.add(IntVar("x") + IntVar("y") >= 2)
        solver = Solver()
        system.assert_into(solver)
        # Only the non-default bound lands on the solver.
        assert "y" in solver._bounds and "x" not in solver._bounds
        assert solver.check().status is SolverStatus.SAT


class TestSimplifierUnits:
    def test_constant_folding_drops_true_and_collapses_false(self):
        x = IntVar("x")
        system = ConstraintSystem()
        system.add(TRUE, x >= 1)
        simplified = ScopedSimplifier(system).system
        assert simplified.constraints == [x >= 1]  # the bare TRUE conjunct disappears
        system2 = ConstraintSystem()
        system2.add(Implies(FALSE, x >= 5))
        scoped2 = ScopedSimplifier(system2)
        assert scoped2.stats.folded == 1 and len(scoped2.system) == 0
        system3 = ConstraintSystem()
        system3.add(x >= 1)
        system3.add(FALSE)
        simplified3 = ScopedSimplifier(system3).system
        assert simplified3.constraints == [x >= 1, FALSE]
        solver = Solver()
        simplified3.assert_into(solver)
        assert solver.check().status is SolverStatus.UNSAT

    def test_fold_constants_preserves_structure(self):
        x, y = IntVar("x"), IntVar("y")
        formula = Implies(x >= 1, Or(y >= 2, Not(TRUE)))
        folded = fold_constants(formula)
        # Constants fold away but the implication shape survives (no NNF).
        assert folded == Implies(x >= 1, y >= 2)
        # A FALSE consequent turns the implication into a negation.
        cut = Implies(conjunction([x >= 1, y >= 1]), FALSE)
        assert fold_constants(cut) == Not(conjunction([x >= 1, y >= 1]))

    def test_contradictory_bounds_collapse(self):
        x = IntVar("x")
        system = ConstraintSystem()
        system.add(x >= 5)
        system.add(x <= 3)
        simplified = ScopedSimplifier(system).system
        solver = Solver()
        simplified.assert_into(solver)
        assert solver.check().status is SolverStatus.UNSAT

    def test_tighten_bounds_off_keeps_atoms(self):
        """Single-variable atoms stay atoms: a solver scope cannot retract a bound."""
        x = IntVar("x")
        system = ConstraintSystem()
        system.declare("x", 0, 9)
        system.add(x <= 7)
        simplified = ScopedSimplifier(system).system
        assert simplified.bounds == {"x": (0, 9)}
        assert simplified.constraints == [x <= 7]


# ----------------------------------------------------------------------
# Property-based: random systems stay satisfiability-equivalent
# ----------------------------------------------------------------------


def _random_atom(rng: random.Random, variables: list[str]):
    terms = [
        (rng.randint(-3, 3), name)
        for name in rng.sample(variables, rng.randint(1, min(3, len(variables))))
    ]
    expr = LinearExpr({name: coefficient for coefficient, name in terms if coefficient != 0})
    constant = rng.randint(-6, 6)
    kind = rng.choice(["<=", ">=", "=="])
    if kind == "<=":
        return expr <= constant
    if kind == ">=":
        return expr >= constant
    return expr.eq(constant)


def _random_formula(rng: random.Random, variables: list[str], depth: int):
    if depth == 0 or rng.random() < 0.4:
        return _random_atom(rng, variables)
    shape = rng.choice(["and", "or", "implies", "not", "const"])
    if shape == "const":
        return rng.choice([TRUE, FALSE])
    if shape == "not":
        return Not(_random_formula(rng, variables, depth - 1))
    if shape == "implies":
        return Implies(
            _random_formula(rng, variables, depth - 1),
            _random_formula(rng, variables, depth - 1),
        )
    children = [_random_formula(rng, variables, depth - 1) for _ in range(rng.randint(2, 3))]
    return conjunction(children) if shape == "and" else Or(*children)


def _random_system(rng: random.Random) -> ConstraintSystem:
    variables = [f"v{index}" for index in range(rng.randint(2, 4))]
    system = ConstraintSystem("random")
    for name in variables:
        lower = rng.choice([0, 0, rng.randint(-4, 2)])
        upper = rng.choice([None, None, rng.randint(3, 9)])
        system.declare(name, lower=lower, upper=upper)
    for _ in range(rng.randint(1, 6)):
        system.add(_random_formula(rng, variables, rng.randint(0, 2)))
    return system


@pytest.mark.parametrize("seed", range(40))
def test_simplified_system_evaluates_identically(seed):
    """Random integer assignments cannot distinguish original and simplified."""
    rng = random.Random(seed)
    system = _random_system(rng)
    simplified = ScopedSimplifier(system).system
    names = sorted(system.variables() | simplified.variables())
    for _ in range(60):
        assignment = {name: rng.randint(-8, 12) for name in names}
        assert simplified.evaluate(assignment) == system.evaluate(assignment), (
            f"seed={seed} assignment={assignment}"
        )


@pytest.mark.parametrize("seed", range(15))
def test_simplified_system_has_same_solver_verdict(seed):
    """The DPLL(T) solver agrees on sat/unsat before and after simplification."""
    rng = random.Random(1000 + seed)
    system = _random_system(rng)
    verdicts = []
    for candidate in (system, ScopedSimplifier(system).system):
        solver = Solver()
        candidate.assert_into(solver)
        # Bounds on variables the solver never sees through constraints must
        # still hold; declare them all explicitly for the verdict check.
        for name in candidate.variables():
            lower, upper = candidate.bound_of(name)
            solver.int_var(name, lower=lower, upper=upper)
        verdicts.append(solver.check().status)
    assert verdicts[0] == verdicts[1], f"seed={seed}: {verdicts}"
