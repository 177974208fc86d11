"""Tests for linear expressions, formulas, NNF and CNF conversion."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.smtlite.cnf import CNFConverter
from repro.smtlite.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolVar,
    Iff,
    Implies,
    Not,
    Or,
    conjunction,
    disjunction,
    to_nnf,
)
from repro.smtlite.terms import IntVar, LinearExpr, linear_sum

x, y, z = IntVar("x"), IntVar("y"), IntVar("z")


class TestLinearExpr:
    def test_arithmetic(self):
        expr = 2 * x + y - 3
        assert expr.coefficient("x") == 2
        assert expr.coefficient("y") == 1
        assert expr.constant == -3
        assert expr.variables() == {"x", "y"}

    def test_zero_coefficients_dropped(self):
        assert (x - x).is_constant()
        assert (x + y - y).variables() == {"x"}

    def test_evaluate(self):
        assert (2 * x + 3 * y + 1).evaluate({"x": 2, "y": 1}) == 8
        with pytest.raises(KeyError):
            (x + y).evaluate({"x": 1})

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            LinearExpr({"x": 0.5})
        with pytest.raises(TypeError):
            x * 0.5  # type: ignore[operator]

    def test_sum_of_and_linear_sum(self):
        total = LinearExpr.sum_of([x, y, 3])
        assert total.evaluate({"x": 1, "y": 2}) == 6
        combo = linear_sum([(2, "x"), (1, y + 1)])
        assert combo.evaluate({"x": 3, "y": 4}) == 11

    @given(
        st.lists(
            st.one_of(
                st.integers(-3, 3),
                st.builds(
                    LinearExpr,
                    st.dictionaries(st.sampled_from("xyzw"), st.integers(-2, 2), max_size=3),
                    st.integers(-3, 3),
                ),
            ),
            max_size=8,
        )
    )
    def test_sum_of_equals_the_fold(self, terms):
        folded = LinearExpr.constant_expr(0)
        for term in terms:
            folded = folded + term
        total = LinearExpr.sum_of(terms)
        assert total == folded
        assert list(total.coefficients.items()) == list(folded.coefficients.items())

    def test_sum_of_cancels_and_reorders_like_the_fold(self):
        total = LinearExpr.sum_of([x, y, -x, 2, x])
        assert list(total.coefficients.items()) == [("y", 1), ("x", 1)]
        assert total.constant == 2
        assert LinearExpr.sum_of([]) == LinearExpr.constant_expr(0)
        with pytest.raises(TypeError):
            LinearExpr.sum_of([x, 0.5])

    def test_rsub_and_neg(self):
        assert (5 - x).evaluate({"x": 2}) == 3
        assert (-x).evaluate({"x": 2}) == -2

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    def test_evaluation_is_linear(self, a, b, vx, vy):
        expr = a * x + b * y
        assert expr.evaluate({"x": vx, "y": vy}) == a * vx + b * vy


class TestComparisons:
    def test_le_atom(self):
        atom = x <= 3
        assert isinstance(atom, Atom)
        assert atom.evaluate({"x": 3})
        assert not atom.evaluate({"x": 4})

    def test_strict_and_reverse(self):
        assert (x < 3).evaluate({"x": 2})
        assert not (x < 3).evaluate({"x": 3})
        assert (x > y).evaluate({"x": 4, "y": 1})
        assert (x >= 2).evaluate({"x": 2})

    def test_eq_and_ne(self):
        eq = (x + y).eq(4)
        assert eq.evaluate({"x": 1, "y": 3})
        assert not eq.evaluate({"x": 1, "y": 4})
        ne = x.ne(y)
        assert ne.evaluate({"x": 1, "y": 2})
        assert not ne.evaluate({"x": 2, "y": 2})

    def test_constant_comparisons_fold(self):
        assert (LinearExpr.constant_expr(1) <= 2) == TRUE
        assert (LinearExpr.constant_expr(3) <= 2) == FALSE

    def test_atom_negation(self):
        atom = x <= 3
        negated = atom.negated()
        for value in range(0, 8):
            assert atom.evaluate({"x": value}) != negated.evaluate({"x": value})


class TestFormulaEvaluation:
    def test_connectives(self):
        formula = Implies(x >= 1, Or(y >= 2, BoolVar("flag")))
        assert formula.evaluate({"x": 0, "y": 0}, {"flag": False})
        assert formula.evaluate({"x": 1, "y": 2}, {"flag": False})
        assert formula.evaluate({"x": 1, "y": 0}, {"flag": True})
        assert not formula.evaluate({"x": 1, "y": 0}, {"flag": False})

    def test_iff(self):
        formula = Iff(x >= 1, y >= 1)
        assert formula.evaluate({"x": 1, "y": 5})
        assert formula.evaluate({"x": 0, "y": 0})
        assert not formula.evaluate({"x": 1, "y": 0})

    def test_atom_collection(self):
        formula = And(x <= 1, Or(y >= 2, Not(BoolVar("b"))))
        assert len(formula.atoms()) == 2
        assert formula.bool_vars() == {"b"}
        assert formula.int_variables() == {"x", "y"}

    def test_conjunction_disjunction_helpers(self):
        assert conjunction([]) == TRUE
        assert disjunction([]) == FALSE
        assert conjunction([TRUE, x <= 1]) == (x <= 1)
        assert disjunction([FALSE, x <= 1]) == (x <= 1)
        assert conjunction([FALSE, x <= 1]) == FALSE
        assert disjunction([TRUE, x <= 1]) == TRUE

    def test_operator_sugar(self):
        formula = (x <= 1) & (y <= 2) | ~BoolVar("b")
        assert formula.evaluate({"x": 0, "y": 0}, {"b": True})
        assert formula.evaluate({"x": 5, "y": 5}, {"b": False})


ASSIGNMENTS = [
    {"x": vx, "y": vy} for vx in range(0, 3) for vy in range(0, 3)
]
BOOLS = [{"b": value} for value in (True, False)]


def formulas_for_nnf_tests():
    return [
        Implies(x >= 1, y >= 2),
        Not(Implies(x >= 1, y >= 2)),
        Iff(x >= 1, Not(BoolVar("b"))),
        Not(And(Or(x <= 0, y >= 1), BoolVar("b"))),
        Not(Not(x.eq(y))),
        Or(And(x >= 1, y >= 1), Not(BoolVar("b")), x.eq(2)),
        Not(x.ne(y)),
    ]


class TestNNF:
    @pytest.mark.parametrize("formula", formulas_for_nnf_tests())
    def test_nnf_preserves_semantics(self, formula):
        nnf = to_nnf(formula)
        for ints in ASSIGNMENTS:
            for bools in BOOLS:
                assert formula.evaluate(ints, bools) == nnf.evaluate(ints, bools)

    def test_nnf_shape(self):
        nnf = to_nnf(Not(And(x <= 1, BoolVar("b"))))
        assert isinstance(nnf, Or)
        kinds = {type(op) for op in nnf.operands}
        assert Not not in kinds or all(
            isinstance(op.operand, BoolVar) for op in nnf.operands if isinstance(op, Not)
        )


class TestCNFConverter:
    def test_atom_variables_are_shared(self):
        converter = CNFConverter()
        clauses1, _ = converter.convert(x <= 1)
        clauses2, _ = converter.convert(Or(x <= 1, y <= 2))
        assert clauses1 == [[1]]
        # The shared atom keeps propositional variable 1.
        assert any(1 in clause for clause in clauses2)

    def test_true_false(self):
        converter = CNFConverter()
        assert converter.convert(TRUE) == ([], False)
        clauses, trivially_false = converter.convert(FALSE)
        assert trivially_false

    def test_clause_structure_of_conjunction(self):
        converter = CNFConverter()
        clauses, _ = converter.convert(And(x <= 1, Or(y <= 2, BoolVar("b"))))
        # One unit clause for the first conjunct, one clause for the disjunction.
        assert sorted(len(clause) for clause in clauses) == [1, 2]

    def test_nested_formula_produces_aux_vars(self):
        converter = CNFConverter()
        clauses, _ = converter.convert(Or(And(x <= 1, y <= 2), BoolVar("b")))
        assert converter.variable_count > 3 - 1  # at least one auxiliary variable
        assert all(clauses)
