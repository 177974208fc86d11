"""Compilation of Presburger predicates into the constraint IR.

The predicates of :mod:`repro.presburger.predicates` know how to describe
themselves as raw :class:`~repro.smtlite.formula.Formula` objects; this
module lifts that description into a full
:class:`~repro.constraints.ir.ConstraintSystem`: the input-symbol count
variables land in the ``"input"`` group, the fresh existential variables a
remainder predicate introduces (division quotients and residues) land in
the ``"presburger:aux"`` group with their natural-number bounds declared,
and the resulting system composes (``merge``) with the verification
builders' blocks before constant folding and backend dispatch.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.constraints.ir import ConstraintSystem
from repro.smtlite.terms import LinearExpr


def predicate_system(
    predicate, input_vars: Mapping, negate: bool = False, name: str = "predicate"
) -> ConstraintSystem:
    """Compile a predicate (or its negation) over ``input_vars`` to the IR.

    ``input_vars`` maps input symbols to variable names or
    :class:`LinearExpr` variables, exactly as the predicates'
    ``formula``/``negation_formula`` methods expect.
    """
    system = ConstraintSystem(name)
    known: set[str] = set()
    for variable in input_vars.values():
        variable_name = variable if isinstance(variable, str) else next(iter(variable.variables()))
        known.add(variable_name)
        system.declare(variable_name, group="input")
    formula = predicate.negation_formula(input_vars) if negate else predicate.formula(input_vars)
    system.add(formula)
    # Fresh existential variables (remainder quotients/residues) get the
    # natural-number bound and their own group.
    for variable_name in sorted(formula.int_variables() - known):
        system.declare(variable_name, group="presburger:aux")
    return system
