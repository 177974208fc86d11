"""The incremental constraint IR (PR 9): scoped deltas, the online
dedup/subsumption index, and the scoped simplifier.

The load-bearing invariants:

* **pop never leaks** — after ``pop_scope`` the system (constraints, bounds,
  groups) is identical to its state at the matching push, and the
  :class:`SimplifyIndex` forgets the popped scope's admissions exactly;
* **delta == from-scratch** — at every point of a random
  push/add/tighten/pop trace, the scoped system is equivalent to
  from-scratch simplification of the flattened system: same ``evaluate``
  on random assignments, same solver verdict;
* **cores survive pops** — the direct-ILP backend's learned infeasibility
  cores are content+bounds-keyed and deliberately not cleared on pop, and
  the statistics prove it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.backends import create_solver
from repro.constraints.direct import DirectILPSolver
from repro.constraints.incremental import (
    ScopedSimplifier,
    SimplifyIndex,
    incremental_statistics,
)
from repro.constraints.ir import ConstraintSystem
from repro.constraints.simplify import simplify_system
from repro.constraints.simplify_cache import system_content_key
from repro.smtlite.formula import And, BoolConst, Or
from repro.smtlite.solver import SolverStatus
from repro.smtlite.terms import LinearExpr


VARIABLES = ("u", "v", "w")


def _expr(names):
    return LinearExpr.sum_of(LinearExpr.variable(name) for name in names)


# ----------------------------------------------------------------------
# ConstraintSystem scopes
# ----------------------------------------------------------------------


def test_pop_scope_restores_exactly():
    system = ConstraintSystem("scoped")
    u = system.declare("u", 0, 10, group="g")
    system.add(u <= 7)
    snapshot = (tuple(system.constraints), dict(system.bounds), dict(system.groups))

    system.push_scope()
    v = system.declare("v", 1, 5, group="g")
    system.declare("u", 0, 3)  # re-declare inside the scope
    system.tighten("u", upper=2)
    system.add(v <= 4, u + v <= 6)
    assert system.scope_depth == 1
    assert system.bounds["u"] == (0, 2)
    system.pop_scope()

    assert system.scope_depth == 0
    assert (tuple(system.constraints), dict(system.bounds), dict(system.groups)) == snapshot


def test_pop_without_push_raises():
    system = ConstraintSystem("bare")
    with pytest.raises(RuntimeError):
        system.pop_scope()


def test_nested_scopes_restore_in_order():
    system = ConstraintSystem("nested")
    u = system.declare("u", 0, None)
    system.push_scope()
    system.add(u <= 5)
    inner_snapshot = (tuple(system.constraints), dict(system.bounds))
    system.push_scope()
    system.tighten("u", upper=3)
    system.add(u <= 1)
    system.pop_scope()
    assert (tuple(system.constraints), dict(system.bounds)) == inner_snapshot
    system.pop_scope()
    assert system.constraints == []
    assert system.scope_marks() == ()


def test_tighten_intersects_bounds():
    system = ConstraintSystem("tighten")
    system.declare("u", 0, 10)
    assert system.tighten("u", lower=2) == (2, 10)
    assert system.tighten("u", upper=12) == (2, 10)  # looser upper is ignored
    assert system.tighten("u", lower=1, upper=5) == (2, 5)


def test_empty_domain_of_an_unconstrained_variable_is_unsat():
    """A tightened-away domain must reach the solver even with no constraint on it."""
    system = ConstraintSystem("empty")
    system.declare("u", 0, 10)
    system.tighten("u", upper=-1)
    solver = create_solver(None)
    system.assert_into(solver)
    assert solver.check().status is SolverStatus.UNSAT


def test_scope_marks_feed_the_cache_key():
    """A scoped system must never collide with its flattened twin."""
    flat = ConstraintSystem("s")
    u = flat.declare("u", 0, 5)
    flat.add(u <= 3)

    scoped = ConstraintSystem("s")
    u2 = scoped.declare("u", 0, 5)
    scoped.push_scope()
    scoped.add(u2 <= 3)

    assert scoped.constraints == flat.constraints
    assert system_content_key(flat, False) != system_content_key(scoped, False)


# ----------------------------------------------------------------------
# SimplifyIndex
# ----------------------------------------------------------------------


def test_index_duplicate_and_subsumption():
    index = SimplifyIndex()
    weak = _expr(["u", "v"]) <= 10
    strong = _expr(["u", "v"]) <= 3
    assert index.admit(weak) == "fresh"
    assert index.admit(weak) == "duplicate"
    # A strictly stronger atom with the same coefficient vector is fresh...
    assert index.admit(strong) == "fresh"
    # ...and now subsumes re-arrivals of the weaker one.
    weak_again = _expr(["u", "v"]) <= 7
    assert index.admit(weak_again) == "subsumed"


def test_index_pop_restores_admissions():
    index = SimplifyIndex()
    base = _expr(["u"]) <= 5
    index.admit(base)
    index.push()
    scoped_formula = _expr(["v"]) <= 2
    stronger = _expr(["u"]) <= 1
    assert index.admit(scoped_formula) == "fresh"
    assert index.admit(stronger) == "fresh"
    index.pop()
    # The popped scope's admissions are forgotten exactly: the identical
    # formula is NOT a duplicate of its popped twin, and the strongest
    # constant for u's vector reverts from the scoped `u <= 1` to the
    # base `u <= 5` — so `u <= 6` is subsumed but `u <= 4` is fresh again.
    assert index.admit(scoped_formula) == "fresh"
    assert index.admit(_expr(["u"]) <= 6) == "subsumed"
    assert index.admit(_expr(["u"]) <= 4) == "fresh"


def test_index_subsumption_direction():
    """Stored strongest constant wins: c' <= c means subsumed."""
    index = SimplifyIndex()
    index.admit(_expr(["u"]) <= 3)
    assert index.admit(_expr(["u"]) <= 5) == "subsumed"  # weaker: implied
    assert index.admit(_expr(["u"]) <= 2) == "fresh"  # stronger: must assert


# ----------------------------------------------------------------------
# ScopedSimplifier: random traces vs from-scratch flattening
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
    if kind < 0.6:
        return _random_atom(rng)
    if kind < 0.8:
        return And(_random_atom(rng), _random_atom(rng))
    return Or(_random_atom(rng), _random_atom(rng))


def _flattened(base_formulas, frames):
    """The unsimplified from-scratch system a trace's scopes flatten to."""
    system = ConstraintSystem("flat")
    for name in VARIABLES:
        system.declare(name, 0, 10)
    for formula in base_formulas:
        system.add(formula)
    for frame in frames:
        for formula in frame:
            system.add(formula)
    return system


def _solver_verdict(system: ConstraintSystem) -> SolverStatus:
    solver = create_solver(None)
    system.assert_into(solver)
    return solver.check().status


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_scoped_delta_equivalent_to_from_scratch(seed):
    rng = random.Random(seed)
    base = ConstraintSystem("base")
    for name in VARIABLES:
        base.declare(name, 0, 10)
    base_formulas = [_random_formula(rng) for _ in range(rng.randint(0, 4))]
    for formula in base_formulas:
        base.add(formula)

    scoped = ScopedSimplifier(base, tighten_bounds=bool(rng.getrandbits(1)))
    frames: list[list] = []  # original (unsimplified) delta per open scope

    def check_equivalent():
        flat = _flattened(base_formulas, frames)
        # Same satisfaction on random assignments (bounds included)...
        for _ in range(25):
            assignment = {name: rng.randint(-1, 11) for name in VARIABLES}
            for extra in scoped.system.variables() | flat.variables():
                assignment.setdefault(extra, rng.randint(0, 3))
            assert scoped.system.evaluate(assignment) == flat.evaluate(assignment), (
                f"seed={seed} assignment={assignment}"
            )
        # ...and the same solver verdict as full from-scratch simplification.
        simplified_flat, _stats = simplify_system(flat, tighten_bounds=False)
        assert _solver_verdict(scoped.system) == _solver_verdict(simplified_flat), f"seed={seed}"

    check_equivalent()
    for _ in range(rng.randint(2, 8)):
        action = rng.random()
        if action < 0.4 or not frames:
            scoped.push()
            frames.append([])
        elif action < 0.7:
            delta = [_random_formula(rng) for _ in range(rng.randint(1, 3))]
            frames[-1].extend(delta)
            scoped.add_delta(*delta)
        else:
            scoped.pop()
            frames.pop()
        check_equivalent()
    while frames:
        scoped.pop()
        frames.pop()
    check_equivalent()


def test_scoped_simplifier_pop_never_leaks():
    base = ConstraintSystem("base")
    u = base.declare("u", 0, 10)
    base.add(u <= 8)
    scoped = ScopedSimplifier(base)
    snapshot = (
        tuple(scoped.system.constraints),
        dict(scoped.system.bounds),
        len(scoped.index),
    )
    scoped.push()
    scoped.add_delta(u <= 5, _expr(["u", "v"]) <= 4)
    scoped.pop()
    assert (
        tuple(scoped.system.constraints),
        dict(scoped.system.bounds),
        len(scoped.index),
    ) == snapshot


def test_scoped_simplifier_counts_savings():
    base = ConstraintSystem("base")
    u = base.declare("u", 0, 10)
    base.add(u <= 8)
    scoped = ScopedSimplifier(base)
    scoped.push()
    asserted = scoped.add_delta(
        u <= 8,  # duplicate of the base constraint
        u <= 9,  # subsumed by it
        BoolConst(True),  # folds away
        _expr(["u", "v"]) <= 4,  # fresh
    )
    assert asserted == [_expr(["u", "v"]) <= 4]
    scoped.pop()
    summary = scoped.savings_summary()
    assert summary["scopes"] == 1
    assert summary["admitted"] == 1
    assert summary["duplicates"] == 1
    assert summary["subsumed"] == 1
    assert summary["folded"] == 1


def test_false_delta_is_surfaced():
    base = ConstraintSystem("base")
    base.declare("u", 0, 10)
    scoped = ScopedSimplifier(base)
    scoped.push()
    asserted = scoped.add_delta(BoolConst(False))
    assert asserted == [BoolConst(False)]
    assert _solver_verdict(scoped.system) is SolverStatus.UNSAT


def test_tighten_bounds_mode_turns_atoms_into_scoped_bounds():
    base = ConstraintSystem("base")
    u = base.declare("u", 0, 10)
    scoped = ScopedSimplifier(base, tighten_bounds=True)
    scoped.push()
    asserted = scoped.add_delta(u <= 4)
    assert asserted == []  # became a bound, nothing to assert
    assert scoped.system.bounds["u"] == (0, 4)
    scoped.pop()
    assert scoped.system.bounds["u"] == (0, 10)


# ----------------------------------------------------------------------
# Learned cores survive pops (direct-ILP backend)
# ----------------------------------------------------------------------


def test_direct_ilp_cores_survive_pops():
    solver = DirectILPSolver()
    u = solver.int_var("u", 0, 5)
    solver.push()
    # Unsatisfiable atoms force a theory conflict and a learned core.
    solver.add(u >= 3, u <= 1)
    assert solver.check().status is SolverStatus.UNSAT
    assert solver.statistics["cores_learned"] >= 1
    before = incremental_statistics()
    solver.pop()
    after = incremental_statistics()
    assert solver.statistics["cores_retained_across_pops"] >= 1
    assert after["cores_retained_across_pops"] > before["cores_retained_across_pops"]
    assert after["pops_with_live_cores"] > before["pops_with_live_cores"]
    # The retained core still answers without a theory call: a *superset*
    # of the learned core on a fresh scope (a new union, so the result memo
    # misses) is refuted by core subsumption alone.
    v = solver.int_var("v", 0, 5)
    solver.push()
    solver.add(u >= 3, u <= 1, v <= 2)
    assert solver.check().status is SolverStatus.UNSAT
    assert solver.statistics["core_subsumptions"] >= 1
    solver.pop()


# ----------------------------------------------------------------------
# Process-wide counters
# ----------------------------------------------------------------------


def test_incremental_statistics_shape():
    stats = incremental_statistics()
    for key in (
        "scopes_pushed",
        "scopes_popped",
        "delta_constraints_simplified",
        "full_resimplifications_avoided",
        "cuts_promoted_to_base",
        "cores_learned",
        "cores_retained_across_pops",
        "core_retention_rate",
    ):
        assert key in stats
    assert "enabled_default" not in stats
