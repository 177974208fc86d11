"""The per-loop constraint pass and the incremental counters.

The load-bearing invariants:

* **delta == from-scratch** — at every point of a random push/add/pop
  trace on a real solver, asserting the pass's output gives the same
  verdict as asserting the original formulas, and the pass's output
  evaluates like the original on random assignments;
* **folding reaches the solver** — on flock-of-birds:4 the
  ``target_support`` cut ``Implies(And(..), FALSE)`` is asserted as
  ``Not(And(..))``, no TRUE conjunct is ever asserted, and a delta folding
  to FALSE makes its scope unsatisfiable;
* **cores survive pops** — the direct-ILP backend's learned infeasibility
  cores are content+bounds-keyed and deliberately not cleared on pop, and
  the statistics prove it.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import backends
from repro.constraints.backends import create_solver
from repro.constraints.incremental import ScopedSimplifier, incremental_statistics
from repro.constraints.ir import ConstraintSystem
from repro.protocols.library import flock_of_birds_protocol
from repro.smtlite.formula import FALSE, TRUE, And, BoolConst, Implies, Not, Or
from repro.smtlite.solver import SolverStatus
from repro.smtlite.terms import LinearExpr
from repro.verification import strong_consensus


VARIABLES = ("u", "v", "w")


def _expr(names):
    return LinearExpr.sum_of(LinearExpr.variable(name) for name in names)


def test_empty_domain_of_an_unconstrained_variable_is_unsat():
    """An empty declared domain must reach the solver even with no constraint on it."""
    system = ConstraintSystem("empty")
    system.declare("u", 0, -1)
    solver = create_solver(None)
    system.assert_into(solver)
    assert solver.check().status is SolverStatus.UNSAT


# ----------------------------------------------------------------------
# Random push/add/pop traces vs the original formulas
# ----------------------------------------------------------------------


def _random_atom(rng: random.Random):
    names = rng.sample(VARIABLES, rng.randint(1, len(VARIABLES)))
    coefficients = {name: rng.randint(-2, 3) for name in names}
    expr = LinearExpr.sum_of(
        coefficient * LinearExpr.variable(name)
        for name, coefficient in coefficients.items()
    )
    return expr <= rng.randint(-2, 8)


def _random_formula(rng: random.Random):
    kind = rng.random()
    if kind < 0.5:
        return _random_atom(rng)
    if kind < 0.65:
        return And(_random_atom(rng), _random_atom(rng))
    if kind < 0.8:
        return Or(_random_atom(rng), _random_atom(rng))
    if kind < 0.9:
        return Implies(_random_atom(rng), rng.choice([TRUE, FALSE]))
    return rng.choice([TRUE, FALSE, _expr([]) <= rng.randint(-1, 1)])


def _bounded_system(name: str) -> ConstraintSystem:
    system = ConstraintSystem(name)
    for variable in VARIABLES:
        system.declare(variable, 0, 10)
    return system


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_scoped_delta_equivalent_to_from_scratch(seed):
    rng = random.Random(seed)
    base = _bounded_system("base")
    base_formulas = [_random_formula(rng) for _ in range(rng.randint(0, 4))]
    base.add(*base_formulas)

    scoped = ScopedSimplifier(base)
    normalised = create_solver(None)
    original = create_solver(None)
    scoped.system.assert_into(normalised)
    base.assert_into(original)
    frames: list[list] = []  # original delta per open scope

    def check_equivalent():
        flat = _bounded_system("flat")
        flat.add(*base_formulas, *(formula for frame in frames for formula in frame))
        for _ in range(10):
            assignment = {name: rng.randint(-1, 11) for name in VARIABLES}
            assert flat.evaluate(assignment) == (
                scoped.system.evaluate(assignment)
                and all(
                    formula.evaluate(assignment)
                    for frame in frames
                    for formula in scoped.add_delta(*frame)
                )
            ), f"seed={seed} assignment={assignment}"
        assert normalised.check().status == original.check().status, f"seed={seed}"

    check_equivalent()
    for _ in range(rng.randint(2, 8)):
        action = rng.random()
        if action < 0.4 or not frames:
            normalised.push()
            original.push()
            frames.append([])
        elif action < 0.7:
            delta = [_random_formula(rng) for _ in range(rng.randint(1, 3))]
            frames[-1].extend(delta)
            for formula in scoped.add_delta(*delta):
                normalised.add(formula)
            original.add(*delta)
        else:
            normalised.pop()
            original.pop()
            frames.pop()
        check_equivalent()


def test_scoped_simplifier_counts_savings():
    base = ConstraintSystem("base")
    u = base.declare("u", 0, 10)
    base.add(u <= 8)
    scoped = ScopedSimplifier(base)
    asserted = scoped.add_delta(
        u <= 8,  # a repeat of the base constraint is asserted again
        And(u <= 9, _expr(["u", "v"]) <= 4),  # split into its parts
        BoolConst(True),  # folds away
        Implies(u <= 3, TRUE),  # folds away
    )
    assert asserted == [u <= 8, u <= 9, _expr(["u", "v"]) <= 4]
    assert scoped.stats.to_dict() == {"before": 6, "after": 4, "folded": 2}


# ----------------------------------------------------------------------
# What reaches the solver
# ----------------------------------------------------------------------


def test_false_delta_is_surfaced():
    base = ConstraintSystem("base")
    u = base.declare("u", 0, 10)
    base.add(u <= 8)
    scoped = ScopedSimplifier(base)
    solver = create_solver(None)
    scoped.system.assert_into(solver)
    solver.push()
    asserted = scoped.add_delta(Implies(u <= 3, u <= 4), Implies(u >= 0, FALSE), u <= 5)
    assert asserted == [Implies(u <= 3, u <= 4), Not(u >= 0), u <= 5]
    asserted = scoped.add_delta(_expr([]) >= 1)  # a constant atom folding to FALSE
    assert asserted == [FALSE]
    solver.add(*asserted)
    assert solver.check().status is SolverStatus.UNSAT
    solver.pop()
    assert solver.check().status is SolverStatus.SAT


def test_folded_cuts_reach_the_solver(monkeypatch):
    """Flock-of-birds:4 asserts its ``target_support`` cuts as ``Not(And(..))``."""
    asserted: list = []
    make_solver = backends.create_solver

    def recording_solver(*args, **kwargs):
        solver = make_solver(*args, **kwargs)
        add = solver.add

        def recording_add(*formulas):
            asserted.extend(formulas)
            add(*formulas)

        solver.add = recording_add
        return solver

    monkeypatch.setattr(strong_consensus, "create_solver", recording_solver)
    result = strong_consensus.check_strong_consensus_impl(
        flock_of_birds_protocol(4), strategy="patterns"
    )
    assert result.holds

    def subformulas(formula):
        yield formula
        for child in getattr(formula, "operands", ()):
            yield from subformulas(child)
        for name in ("operand", "antecedent", "consequent", "left", "right"):
            child = getattr(formula, name, None)
            if child is not None:
                yield from subformulas(child)

    assert TRUE not in asserted
    assert not any(isinstance(formula, And) for formula in asserted)
    for formula in asserted:
        for part in subformulas(formula):
            assert not (isinstance(part, Implies) and isinstance(part.consequent, BoolConst))
    assert any(
        isinstance(formula, Not) and isinstance(formula.operand, And) for formula in asserted
    )


# ----------------------------------------------------------------------
# Process-wide counters
# ----------------------------------------------------------------------


def test_incremental_statistics_shape():
    stats = incremental_statistics()
    assert set(stats) == {
        "cuts_promoted_to_base",
        "cores_learned",
        "cores_retained_across_pops",
        "pops_with_live_cores",
        "core_retention_rate",
    }
