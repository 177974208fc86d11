"""Tests for the exact simplex and the branch-and-bound integer solver.

The exact solver is cross-checked against scipy's HiGHS LP solver on random
instances (hypothesis) and on hand-written corner cases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.smtlite.branch_and_bound import ILPStatus, solve_integer_feasibility
from repro.smtlite.simplex import LinearProgram, LPStatus


class TestSimplexBasics:
    def test_simple_maximization(self):
        lp = LinearProgram()
        lp.add_variable("x", lower=0)
        lp.add_variable("y", lower=0)
        lp.add_constraint({"x": 1, "y": 1}, "<=", 4)
        lp.add_constraint({"x": 1, "y": 3}, "<=", 6)
        lp.set_objective({"x": 1, "y": 2}, maximize=True)
        solution = lp.solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.objective == Fraction(5)  # attained at x=3, y=1

    def test_simple_minimization_with_equalities(self):
        lp = LinearProgram()
        lp.add_constraint({"x": 1, "y": 1}, "==", 10)
        lp.add_constraint({"x": 1}, ">=", 3)
        lp.set_objective({"y": 1})
        solution = lp.solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.objective == Fraction(0)
        assert solution.values["x"] == Fraction(10)

    def test_infeasible(self):
        lp = LinearProgram()
        lp.add_constraint({"x": 1}, "<=", 1)
        lp.add_constraint({"x": 1}, ">=", 3)
        solution = lp.solve()
        assert solution.status is LPStatus.INFEASIBLE
        assert solution.infeasible_rows is not None

    def test_unbounded(self):
        lp = LinearProgram()
        lp.add_variable("x", lower=0)
        lp.set_objective({"x": 1}, maximize=True)
        solution = lp.solve()
        assert solution.status is LPStatus.UNBOUNDED

    def test_free_variable(self):
        lp = LinearProgram()
        lp.add_variable("x", lower=None)
        lp.add_constraint({"x": 1}, "<=", -5)
        lp.set_objective({"x": 1}, maximize=True)
        solution = lp.solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values["x"] == Fraction(-5)

    def test_upper_bounded_variable(self):
        lp = LinearProgram()
        lp.add_variable("x", lower=0, upper=3)
        lp.set_objective({"x": 1}, maximize=True)
        solution = lp.solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values["x"] == Fraction(3)

    def test_upper_bound_only_variable(self):
        lp = LinearProgram()
        lp.add_variable("x", lower=None, upper=2)
        lp.add_constraint({"x": 1}, ">=", -7)
        lp.set_objective({"x": 1})
        solution = lp.solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values["x"] == Fraction(-7)

    def test_empty_variable_domain_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ValueError):
            lp.add_variable("x", lower=3, upper=1)

    def test_exact_fractions(self):
        lp = LinearProgram()
        lp.add_constraint({"x": 3}, "==", 1)
        lp.set_objective({"x": 1})
        solution = lp.solve()
        assert solution.values["x"] == Fraction(1, 3)

    def test_feasibility_only_no_objective(self):
        lp = LinearProgram()
        lp.add_constraint({"x": 2, "y": 3}, "==", 12)
        lp.add_constraint({"x": 1}, ">=", 1)
        solution = lp.solve()
        assert solution.status is LPStatus.OPTIMAL
        values = solution.values
        assert 2 * values["x"] + 3 * values["y"] == 12

    def test_flow_cycle_detection_lp(self):
        # The LP used by Proposition 6: does a non-negative, non-zero flow
        # with zero net effect exist?  For the majority protocol the full set
        # of transitions has one (tAb + tBa cancel out), which is exactly why
        # the protocol needs two layers; the first layer alone has none.
        deltas = {
            "tAB": {"A": -1, "B": -1, "a": 1, "b": 1},
            "tAb": {"b": -1, "a": 1},
            "tBa": {"a": -1, "b": 1},
            "tba": {"a": -1, "b": 1},
        }

        def max_flow(names):
            lp = LinearProgram()
            for name in names:
                lp.add_variable(name, lower=0, upper=1)
            for state in ["A", "B", "a", "b"]:
                coefficients = {name: deltas[name].get(state, 0) for name in names}
                lp.add_constraint(coefficients, "==", 0)
            lp.set_objective({name: 1 for name in names}, maximize=True)
            solution = lp.solve()
            assert solution.status is LPStatus.OPTIMAL
            return solution.objective

        assert max_flow(["tAB", "tAb", "tBa", "tba"]) > 0
        assert max_flow(["tAB", "tAb"]) == 0
        assert max_flow(["tBa", "tba"]) == 0


def random_lp_strategy():
    entry = st.integers(min_value=-4, max_value=4)
    return st.tuples(
        st.integers(min_value=1, max_value=3),  # number of variables
        st.integers(min_value=1, max_value=4),  # number of constraints
        st.lists(entry, min_size=30, max_size=30),
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        st.lists(st.sampled_from(["<=", ">=", "=="]), min_size=4, max_size=4),
        st.lists(entry, min_size=3, max_size=3),
    )


class TestSimplexAgainstScipy:
    @given(random_lp_strategy())
    @settings(max_examples=60, deadline=None)
    # HiGHS reports this feasible, unbounded LP as infeasible; the exact
    # simplex answers unbounded.
    @example(
        (3, 3, [0, 0, 0, -1, -1, 1, -1, -1, 1] + [0] * 21, [0, 0, 1, 0], ["<=", ">=", "<=", "<="], [0, -1, 0])
    )
    def test_agrees_with_highs(self, data):
        num_vars, num_cons, flat_matrix, rhs_values, senses, objective_values = data
        lp = LinearProgram()
        variables = [f"v{i}" for i in range(num_vars)]
        for name in variables:
            lp.add_variable(name, lower=0)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for row in range(num_cons):
            coefficients = {
                variables[col]: flat_matrix[row * num_vars + col] for col in range(num_vars)
            }
            sense = senses[row]
            rhs = rhs_values[row]
            lp.add_constraint(coefficients, sense, rhs)
            dense = [coefficients[name] for name in variables]
            if sense == "<=":
                a_ub.append(dense)
                b_ub.append(rhs)
            elif sense == ">=":
                a_ub.append([-value for value in dense])
                b_ub.append(-rhs)
            else:
                a_eq.append(dense)
                b_eq.append(rhs)
        objective = {name: objective_values[index] for index, name in enumerate(variables)}
        lp.set_objective(objective)

        ours = lp.solve()
        reference = optimize.linprog(
            c=[objective[name] for name in variables],
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[(0, None)] * num_vars,
            method="highs",
        )
        if reference.status == 2:
            # HiGHS can misreport an unbounded LP as infeasible; the zero
            # objective tells feasibility apart from dual infeasibility.
            feasible = optimize.linprog(
                c=np.zeros(num_vars),
                A_ub=np.array(a_ub) if a_ub else None,
                b_ub=np.array(b_ub) if b_ub else None,
                A_eq=np.array(a_eq) if a_eq else None,
                b_eq=np.array(b_eq) if b_eq else None,
                bounds=[(0, None)] * num_vars,
                method="highs",
            )
            expected = LPStatus.UNBOUNDED if feasible.status == 0 else LPStatus.INFEASIBLE
            assert ours.status is expected
        elif reference.status == 3:
            assert ours.status is LPStatus.UNBOUNDED
        elif reference.status == 0:
            assert ours.status is LPStatus.OPTIMAL
            assert abs(float(ours.objective) - reference.fun) < 1e-6


class TestBranchAndBound:
    def test_integer_point_found(self):
        result = solve_integer_feasibility(
            constraints=[({"x": 2, "y": 2}, "==", 5)],
            bounds={"x": (0, None), "y": (0, None)},
        )
        # 2x + 2y = 5 has no integer solution.
        assert result.status is ILPStatus.INFEASIBLE

    def test_feasible_instance(self):
        result = solve_integer_feasibility(
            constraints=[({"x": 2, "y": 3}, "==", 12), ({"x": 1}, ">=", 1)],
            bounds={"x": (0, None), "y": (0, None)},
        )
        assert result.status is ILPStatus.FEASIBLE
        values = result.values
        assert 2 * values["x"] + 3 * values["y"] == 12
        assert values["x"] >= 1

    def test_fractional_vertex_forces_branching(self):
        result = solve_integer_feasibility(
            constraints=[
                ({"x": 2}, ">=", 1),
                ({"x": 2}, "<=", 3),
            ],
            bounds={"x": (0, None)},
        )
        assert result.status is ILPStatus.FEASIBLE
        assert result.values["x"] == 1
        assert result.nodes_explored >= 1

    def test_infeasible_lp_relaxation_gives_core(self):
        result = solve_integer_feasibility(
            constraints=[({"x": 1}, ">=", 5), ({"x": 1}, "<=", 2), ({"y": 1}, ">=", 0)],
            bounds={"x": (0, None), "y": (0, None)},
        )
        assert result.status is ILPStatus.INFEASIBLE
        assert result.infeasible_rows is not None
        assert set(result.infeasible_rows) <= {0, 1, 2}

    def test_bounded_box_infeasible(self):
        result = solve_integer_feasibility(
            constraints=[({"x": 3}, "==", 7)],
            bounds={"x": (0, 10)},
        )
        assert result.status is ILPStatus.INFEASIBLE

    def test_negative_lower_bounds(self):
        result = solve_integer_feasibility(
            constraints=[({"x": 1, "y": 1}, "==", -3), ({"x": 1}, "<=", -1)],
            bounds={"x": (None, None), "y": (0, None)},
        )
        assert result.status is ILPStatus.FEASIBLE
        assert result.values["x"] + result.values["y"] == -3

    @pytest.mark.parametrize("seed", range(8))
    def test_against_scipy_milp(self, seed):
        rng = np.random.RandomState(seed)
        num_vars, num_cons = 3, 3
        matrix = rng.randint(-3, 4, size=(num_cons, num_vars))
        rhs = rng.randint(-4, 8, size=num_cons)
        constraints = [
            ({f"v{j}": int(matrix[i, j]) for j in range(num_vars)}, "<=", int(rhs[i]))
            for i in range(num_cons)
        ]
        bounds = {f"v{j}": (0, 6) for j in range(num_vars)}
        ours = solve_integer_feasibility(constraints, bounds)

        reference = optimize.milp(
            c=np.zeros(num_vars),
            constraints=[optimize.LinearConstraint(matrix.astype(float), -np.inf, rhs.astype(float))],
            integrality=np.ones(num_vars),
            bounds=optimize.Bounds(np.zeros(num_vars), np.full(num_vars, 6.0)),
        )
        assert (ours.status is ILPStatus.FEASIBLE) == bool(reference.success)
        if ours.status is ILPStatus.FEASIBLE:
            for (coefficients, sense, bound) in constraints:
                total = sum(coefficients[name] * ours.values[name] for name in coefficients)
                assert total <= bound

    def test_parity_conflict_on_unbounded_variables(self):
        # The LP relaxation has points arbitrarily far out, none integral:
        # branching alone never closes it, a Gomory cut does at once.
        result = solve_integer_feasibility(
            constraints=[({"x": 2, "y": -2}, "==", 1)],
            bounds={"x": (0, None), "y": (0, None)},
        )
        assert result.status is ILPStatus.INFEASIBLE
        assert result.nodes_explored <= 3

    def test_parity_conflict_behind_inequalities(self):
        # 2x - 2y is squeezed into [-1, 0] by two rows and pushed to -1 by
        # two more; only half-integral LP points remain.
        result = solve_integer_feasibility(
            constraints=[
                ({"x": 2, "y": -2}, ">=", -1),
                ({"x": 2, "y": -2}, "<=", 0),
                ({"x": -2, "y": 2, "z": 1}, ">=", 1),
                ({"z": 1}, "<=", 0),
            ],
            bounds={"x": (0, None), "y": (0, None), "z": (0, None)},
        )
        assert result.status is ILPStatus.INFEASIBLE


@st.composite
def small_integer_programs(draw):
    """A random program over at most three integer variables in a small box."""
    names = [f"v{index}" for index in range(draw(st.integers(1, 3)))]
    bounds = {name: (draw(st.integers(-2, 1)), draw(st.sampled_from([None, 4]))) for name in names}
    constraints = [
        (
            {name: draw(st.integers(-4, 4)) for name in names},
            draw(st.sampled_from(["<=", ">=", "=="])),
            draw(st.integers(-5, 8)),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return constraints, bounds


class TestGomoryCuts:
    @given(small_integer_programs())
    @settings(max_examples=150, deadline=None)
    def test_cuts_separate_the_vertex_and_keep_every_integer_point(self, program):
        constraints, bounds = program
        lp = LinearProgram()
        for name, (lower, upper) in bounds.items():
            lp.add_variable(name, lower=lower, upper=upper)
        for coefficients, sense, rhs in constraints:
            lp.add_constraint(coefficients, sense, rhs)
        solution = lp.solve()
        cuts = lp.gomory_cuts(10)
        if solution.status is not LPStatus.OPTIMAL:
            assert cuts == []
            return
        if all(value.denominator == 1 for value in solution.values.values()):
            assert cuts == []
        for coefficients, rhs in cuts:
            assert sum(value * solution.values[name] for name, value in coefficients.items()) < rhs
        holds = {"<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b, "==": lambda a, b: a == b}
        ranges = [range(lower, 7 if upper is None else upper + 1) for lower, upper in bounds.values()]
        for point in itertools.product(*ranges):
            values = dict(zip(bounds, point))
            if all(
                holds[sense](sum(value * values[name] for name, value in coefficients.items()), rhs)
                for coefficients, sense, rhs in constraints
            ):
                for coefficients, rhs in cuts:
                    assert sum(value * values[name] for name, value in coefficients.items()) >= rhs

    def test_no_cuts_with_a_free_variable(self):
        lp = LinearProgram()
        lp.add_variable("x", lower=None, upper=None)
        lp.add_variable("y", lower=0)
        lp.add_constraint({"x": 2, "y": 2}, "==", 1)
        assert lp.solve().status is LPStatus.OPTIMAL
        assert lp.gomory_cuts(10) == []

    def test_no_cuts_with_fractional_data(self):
        lp = LinearProgram()
        lp.add_variable("x", lower=0)
        lp.add_constraint({"x": Fraction(1, 2)}, "==", Fraction(1, 3))
        assert lp.solve().status is LPStatus.OPTIMAL
        assert lp.gomory_cuts(10) == []
