"""Tests for the solver-backend registry and the default backend's verdicts."""

from __future__ import annotations

import random

import pytest

from repro.constraints.backends import (
    available_backends,
    create_solver,
    get_backend,
    register_backend,
    resolve_backend_name,
    unregister_backend,
)
from repro.constraints.z3_backend import z3_available
from repro.smtlite.formula import Or
from repro.smtlite.solver import Solver
from repro.smtlite.terms import IntVar


class TestRegistry:
    def test_builtins_are_registered(self):
        expected = ("smtlite", "z3") if z3_available() else ("smtlite",)
        assert available_backends() == expected

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            get_backend("z3")

    def test_none_resolves_to_default(self):
        assert resolve_backend_name(None) == "smtlite"
        assert resolve_backend_name("") == "smtlite"
        assert resolve_backend_name("z3") == "z3"

    def test_duplicate_registration_guard(self):
        class Custom:
            name = "custom-backend"

            def create_solver(self, theory="auto"):
                return Solver(theory=theory)

        try:
            register_backend(Custom())
            with pytest.raises(ValueError, match="already registered"):
                register_backend(Custom())
            register_backend(Custom(), replace=True)
            assert create_solver("custom-backend") is not None
        finally:
            unregister_backend("custom-backend")
        with pytest.raises(ValueError):
            get_backend("custom-backend")

    def test_nameless_backend_rejected(self):
        class Nameless:
            name = ""

        with pytest.raises(ValueError, match="must define a name"):
            register_backend(Nameless())


@pytest.mark.parametrize("seed", range(12))
def test_random_formula_verdict_parity_across_backends(seed):
    """The default backend agrees with DPLL(T) on the exact theory solver."""
    rng = random.Random(2000 + seed)
    variables = [IntVar(f"v{index}") for index in range(3)]

    def random_atom():
        expr = sum(
            (rng.randint(-3, 3) * variable for variable in variables),
            rng.randint(-4, 4) * variables[0],
        )
        return expr <= rng.randint(-5, 8)

    formulas = []
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.5:
            formulas.append(random_atom())
        else:
            formulas.append(Or(random_atom(), random_atom()))

    reference = Solver(theory="exact")
    reference.add(*formulas)
    solver = create_solver()
    solver.add(*formulas)
    assert solver.check().status == reference.check().status, f"seed={seed}"
