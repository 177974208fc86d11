"""Microbenchmark for the incremental constraint IR (PR 9).

The scoped-delta simplifier's claim is that pushing a small delta onto a
large simplified base costs time proportional to the *delta*, while
re-simplifying the whole flattened system per scope grows with the stack.
The pair of benchmarks measures exactly that on a growing scope stack.
"""

from __future__ import annotations

from repro.constraints.incremental import ScopedSimplifier
from repro.constraints.ir import ConstraintSystem
from repro.constraints.simplify import simplify_system
from repro.smtlite.terms import LinearExpr

from .conftest import run_once

BASE_CONSTRAINTS = 400
SCOPES = 40
DELTA_PER_SCOPE = 3


def _base_system() -> ConstraintSystem:
    system = ConstraintSystem("bench-base")
    variables = [system.declare(f"x{i}", 0, 100) for i in range(40)]
    for index in range(BASE_CONSTRAINTS):
        a = variables[index % len(variables)]
        b = variables[(index * 7 + 3) % len(variables)]
        system.add(a + 2 * b <= 50 + index % 17)
    return system


def _delta(step: int) -> list:
    x = LinearExpr.variable(f"x{step % 40}")
    y = LinearExpr.variable(f"x{(step * 3 + 1) % 40}")
    return [
        x + y <= 30 + step % 5,
        x - y <= 10,
        x + y <= 60,  # subsumed by the first atom: exercises the index
    ][:DELTA_PER_SCOPE]


def _incremental_stack() -> int:
    scoped = ScopedSimplifier(_base_system())
    asserted = 0
    for step in range(SCOPES):
        scoped.push()
        asserted += len(scoped.add_delta(*_delta(step)))
    for _ in range(SCOPES):
        scoped.pop()
    return asserted


def _from_scratch_stack() -> int:
    """The rebuild shape: re-simplify the whole flattened system per scope."""
    constraints = 0
    deltas: list = []
    for step in range(SCOPES):
        deltas.extend(_delta(step))
        system = _base_system()
        for formula in deltas:
            system.add(formula)
        simplified, _stats = simplify_system(system, tighten_bounds=False)
        constraints = len(simplified.constraints)
    return constraints


def test_delta_simplification_on_growing_stack(benchmark):
    asserted = run_once(benchmark, _incremental_stack)
    # The third atom of every delta is subsumed, so strictly fewer formulas
    # are asserted than arrive.
    assert 0 < asserted < SCOPES * DELTA_PER_SCOPE


def test_from_scratch_simplification_on_growing_stack(benchmark):
    constraints = run_once(benchmark, _from_scratch_stack)
    # The generated base repeats coefficient vectors, so dedup/subsumption
    # compresses it well below the raw count — the point here is the *time*
    # of re-simplifying the whole flattened system per scope.
    assert 0 < constraints <= BASE_CONSTRAINTS + SCOPES * DELTA_PER_SCOPE
