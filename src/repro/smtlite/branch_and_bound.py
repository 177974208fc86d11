"""Integer feasibility by branch-and-bound over the exact simplex.

The theory solver needs to decide whether a conjunction of linear constraints
has a solution over the integers (the paper's constraint systems are over the
natural numbers).  This module implements the classical branch-and-bound
scheme on top of :mod:`repro.smtlite.simplex`: solve the LP relaxation
exactly, and if some integer variable takes a fractional value, branch on the
two rounded bounds.  Before a node is branched on, up to two rounds of
Gomory cuts read off its optimal tableau are added and the node is solved
again.  A cut removes the fractional vertex but no integer point; cuts decide
systems without integer points whose LP relaxation is unbounded (parity
conflicts such as ``2x - 2y == 1`` among other rows), on which branching alone
never stops.

The search is depth-first and purely a feasibility search (no objective), so
the first integral LP solution terminates it.  A node budget guards against
pathological unbounded cases; exceeding it yields ``UNKNOWN`` and callers
fall back to another backend or report the problem.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import ceil, floor

from repro.smtlite.simplex import LinearProgram, LPStatus


class ILPStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


@dataclass
class ILPResult:
    status: ILPStatus
    values: dict[str, int] | None = None
    #: Indices of the constraints participating in a root-level LP
    #: infeasibility certificate (``None`` if not applicable).
    infeasible_rows: list[int] | None = None
    nodes_explored: int = 0


Constraint = tuple[Mapping[str, int], str, int]
Bounds = Mapping[str, tuple[int | None, int | None]]

#: Gomory cut rounds at one node before it is branched on, and cuts per round.
_CUT_ROUNDS = 2
_CUTS_PER_ROUND = 4


def solve_integer_feasibility(
    constraints: Sequence[Constraint],
    bounds: Bounds,
    integer_variables: set[str] | None = None,
    max_nodes: int = 4000,
) -> ILPResult:
    """Find an integer solution of ``constraints`` respecting ``bounds``.

    Parameters
    ----------
    constraints:
        Sequence of ``(coefficients, sense, rhs)`` triples with ``sense`` one
        of ``"<="``, ``">="``, ``"=="``.
    bounds:
        Mapping from variable name to ``(lower, upper)``; ``None`` means
        unbounded on that side.  Variables not mentioned default to ``(0, None)``.
    integer_variables:
        Variables required to be integral; defaults to *all* variables.
    """
    names: set[str] = set(bounds)
    for coefficients, _, _ in constraints:
        names.update(coefficients)
    # Deterministic variable order: the simplex pivoting path (and hence the
    # branch-and-bound trajectory) must not depend on hash randomization.
    variable_names = sorted(names)
    if integer_variables is None:
        integer_variables = set(variable_names)

    nodes_explored = 0
    root_core: list[int] | None = None

    # Cuts are only valid when every column of the LP is integral.
    cutting = integer_variables.issuperset(variable_names)

    # Each stack entry holds the bounds tightened by branching, the cuts
    # valid under them and the number of cut rounds run at this node.
    stack: list[tuple[dict[str, tuple[int | None, int | None]], list[Constraint], int]] = [
        (dict(), [], 0)
    ]

    while stack:
        if nodes_explored >= max_nodes:
            return ILPResult(status=ILPStatus.UNKNOWN, nodes_explored=nodes_explored)
        extra_bounds, cuts, rounds = stack.pop()
        nodes_explored += 1

        program = LinearProgram()
        for name in variable_names:
            lower, upper = bounds.get(name, (0, None))
            extra_lower, extra_upper = extra_bounds.get(name, (None, None))
            lower = _tighter_lower(lower, extra_lower)
            upper = _tighter_upper(upper, extra_upper)
            if lower is not None and upper is not None and lower > upper:
                break
            program.add_variable(name, lower=lower, upper=upper)
        else:
            for coefficients, sense, rhs in (*constraints, *cuts):
                program.add_constraint(coefficients, sense, rhs)
            solution = program.solve()
            if solution.status is LPStatus.INFEASIBLE:
                if nodes_explored == 1:
                    root_core = solution.infeasible_rows
                continue
            if solution.status is LPStatus.UNBOUNDED:  # pragma: no cover - zero objective
                raise RuntimeError("feasibility LP cannot be unbounded")
            fractional = _first_fractional(solution.values, integer_variables)
            if fractional is None:
                values = {
                    name: int(value)
                    for name, value in solution.values.items()
                    if name in integer_variables
                }
                for name, value in solution.values.items():
                    values.setdefault(name, int(value) if value.denominator == 1 else int(floor(value)))
                return ILPResult(
                    status=ILPStatus.FEASIBLE, values=values, nodes_explored=nodes_explored
                )
            if cutting and rounds < _CUT_ROUNDS:
                new_cuts = program.gomory_cuts(_CUTS_PER_ROUND)
                if new_cuts:
                    # Re-solve this node with the cuts before branching on it.
                    stack.append(
                        (extra_bounds, cuts + [(row, ">=", rhs) for row, rhs in new_cuts], rounds + 1)
                    )
                    continue
            name, value = fractional
            down = dict(extra_bounds)
            down[name] = _merge_branch(down.get(name), upper=floor(value))
            up = dict(extra_bounds)
            up[name] = _merge_branch(up.get(name), lower=ceil(value))
            stack.append((up, cuts, 0))
            stack.append((down, cuts, 0))
            continue
        # Bound conflict (inner loop broke): infeasible node, nothing to do.

    return ILPResult(
        status=ILPStatus.INFEASIBLE, infeasible_rows=root_core, nodes_explored=nodes_explored
    )


def _tighter_lower(first: int | None, second: int | None) -> int | None:
    if first is None:
        return second
    if second is None:
        return first
    return max(first, second)


def _tighter_upper(first: int | None, second: int | None) -> int | None:
    if first is None:
        return second
    if second is None:
        return first
    return min(first, second)


def _merge_branch(
    existing: tuple[int | None, int | None] | None,
    lower: int | None = None,
    upper: int | None = None,
) -> tuple[int | None, int | None]:
    current_lower, current_upper = existing if existing is not None else (None, None)
    return (_tighter_lower(current_lower, lower), _tighter_upper(current_upper, upper))


def _first_fractional(
    values: dict[str, Fraction], integer_variables: set[str]
) -> tuple[str, Fraction] | None:
    for name in sorted(integer_variables):
        value = values.get(name, Fraction(0))
        if value.denominator != 1:
            return name, value
    return None
