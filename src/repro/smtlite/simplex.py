"""An exact rational simplex solver.

This is the from-scratch linear-programming core of the theory solver: a
two-phase primal simplex over ``fractions.Fraction`` using Bland's rule, so
it is immune to both rounding errors and cycling.  It is intentionally a
dense textbook implementation — the linear systems produced by the
verification engine are small to medium sized, and exactness matters more
than raw speed (large instances are routed to the scipy/HiGHS backend, whose
answers are re-verified exactly).

Features:

* variables with arbitrary lower/upper bounds (including free variables),
* ``<=``, ``>=`` and ``==`` constraints,
* minimisation or maximisation of a linear objective,
* detection of infeasibility and unboundedness,
* on infeasibility, an (over-approximating) *certificate* of the constraint
  rows that participate in the contradiction, used by the DPLL(T) engine to
  learn small conflict clauses.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import reduce
from math import ceil, floor, gcd, lcm


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LPSolution:
    """Result of an LP solve."""

    status: LPStatus
    objective: Fraction | None = None
    values: dict[str, Fraction] = field(default_factory=dict)
    #: Indices (into the constraint list) of rows participating in an
    #: infeasibility certificate; ``None`` when the problem is feasible.
    infeasible_rows: list[int] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL


@dataclass
class _Constraint:
    coefficients: dict[str, Fraction]
    sense: str
    rhs: Fraction


class LinearProgram:
    """A linear program over named variables with exact rational arithmetic."""

    def __init__(self) -> None:
        self._bounds: dict[str, tuple[Fraction | None, Fraction | None]] = {}
        self._constraints: list[_Constraint] = []
        self._objective: dict[str, Fraction] = {}
        self._maximize = False
        self._optimal_tableau: _Tableau | None = None

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def add_variable(
        self,
        name: str,
        lower: int | Fraction | None = 0,
        upper: int | Fraction | None = None,
    ) -> str:
        """Declare a variable with the given bounds (default: non-negative)."""
        low = None if lower is None else Fraction(lower)
        high = None if upper is None else Fraction(upper)
        if low is not None and high is not None and low > high:
            raise ValueError(f"variable {name!r} has empty domain [{low}, {high}]")
        self._bounds[name] = (low, high)
        return name

    def has_variable(self, name: str) -> bool:
        return name in self._bounds

    def add_constraint(
        self, coefficients: Mapping[str, int | Fraction], sense: str, rhs: int | Fraction
    ) -> int:
        """Add ``sum coeff*var  <sense>  rhs`` and return the constraint index."""
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown constraint sense {sense!r}")
        cleaned: dict[str, Fraction] = {}
        for name, value in coefficients.items():
            if name not in self._bounds:
                self.add_variable(name)
            value = Fraction(value)
            if value != 0:
                cleaned[name] = value
        self._constraints.append(_Constraint(cleaned, sense, Fraction(rhs)))
        return len(self._constraints) - 1

    def set_objective(self, coefficients: Mapping[str, int | Fraction], maximize: bool = False) -> None:
        for name in coefficients:
            if name not in self._bounds:
                self.add_variable(name)
        self._objective = {name: Fraction(value) for name, value in coefficients.items() if value != 0}
        self._maximize = maximize

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def variables(self) -> list[str]:
        return list(self._bounds)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(self) -> LPSolution:
        """Solve the LP with a two-phase exact simplex."""
        tableau = _Tableau.build(self._bounds, self._constraints, self._objective, self._maximize)
        solution = tableau.solve()
        self._optimal_tableau = tableau if solution.status is LPStatus.OPTIMAL else None
        if solution.status is LPStatus.OPTIMAL:
            objective_value = sum(
                (coefficient * solution.values[name] for name, coefficient in self._objective.items()),
                Fraction(0),
            )
            solution.objective = objective_value
        return solution

    def gomory_cuts(self, limit: int) -> list[tuple[dict[str, int], int]]:
        """Up to ``limit`` Gomory fractional cuts off the last optimal tableau.

        Each cut ``(coefficients, rhs)`` reads ``sum coefficients*var >= rhs``:
        every integer point of this program satisfies it, the last optimal
        vertex does not.  A tableau row whose basic column takes a fractional
        value gives ``sum frac(a_j) * x_j >= frac(b)`` over its non-basic
        columns, which is rewritten in the program's variables and rounded
        (Chvátal-Gomory).  Cuts need every column to be integral at integer
        points, so none are derived when a variable is free or a bound,
        coefficient or right-hand side is fractional.
        """
        tableau = self._optimal_tableau
        if tableau is None or not self._integral():
            return []
        cuts: list[tuple[dict[str, int], int]] = []
        for row, basic in zip(tableau.rows, tableau.basis):
            if len(cuts) >= limit:
                break
            value = row[-1]
            if value.denominator == 1 or tableau.column_names[basic][0] == "art":
                continue
            coefficients: dict[str, Fraction] = {}
            rhs = value - floor(value)
            for column, entry in enumerate(row[:-1]):
                fraction = entry - floor(entry)
                if column == basic or fraction == 0 or tableau.column_names[column][0] == "art":
                    # Artificial columns are zero at every point of the program.
                    continue
                terms, constant = self._column_as_affine(tableau, column)
                for name, factor in terms.items():
                    coefficients[name] = coefficients.get(name, Fraction(0)) + fraction * factor
                rhs -= fraction * constant
            coefficients = {name: value for name, value in coefficients.items() if value != 0}
            if not coefficients:
                # The terms cancel: ``0 >= rhs`` proves there is no integer point
                # (a parity conflict) or holds trivially.
                if rhs > 0:
                    cuts.append(({}, 1))
                continue
            scale = 1
            for number in (*coefficients.values(), rhs):
                scale = lcm(scale, number.denominator)
            integral = {name: int(value * scale) for name, value in coefficients.items()}
            divisor = reduce(gcd, integral.values(), 0)
            cuts.append(
                (
                    {name: value // divisor for name, value in integral.items()},
                    ceil(rhs * scale / divisor),
                )
            )
        return cuts

    def _integral(self) -> bool:
        for low, high in self._bounds.values():
            if low is None and high is None:
                return False
            if any(bound is not None and bound.denominator != 1 for bound in (low, high)):
                return False
        return all(
            constraint.rhs.denominator == 1
            and all(value.denominator == 1 for value in constraint.coefficients.values())
            for constraint in self._constraints
        )

    def _column_as_affine(
        self, tableau: "_Tableau", column: int
    ) -> tuple[dict[str, Fraction], Fraction]:
        """Column ``column`` of ``tableau`` as ``sum terms*var + constant`` (no free variables)."""
        kind, payload = tableau.column_names[column]
        if kind == "var+":  # x - lower
            return {payload: Fraction(1)}, -self._bounds[payload][0]
        if kind == "var-":  # upper - x
            return {payload: Fraction(-1)}, self._bounds[payload][1]
        origin, key = tableau.row_origin[payload]
        if origin == "bound":  # slack of x - lower <= upper - lower
            return {key: Fraction(-1)}, self._bounds[key][1]
        constraint = self._constraints[key]
        if constraint.sense == "<=":  # rhs - a.x
            return {name: -value for name, value in constraint.coefficients.items()}, constraint.rhs
        return dict(constraint.coefficients), -constraint.rhs  # a.x - rhs


class _Tableau:
    """Dense simplex tableau in standard form ``min c x, A x = b, x >= 0``."""

    def __init__(self) -> None:
        self.rows: list[list[Fraction]] = []  # each row: coefficients + rhs (last entry)
        self.row_origin: list[tuple[str, object]] = []  # ("constraint", index) or ("bound", var)
        self.basis: list[int] = []
        self.initial_basis: list[int] = []
        self.num_columns = 0
        self.column_names: list[tuple[str, object]] = []  # ("var+", name), ("var-", name), ("slack", i), ("art", i)
        self.costs: list[Fraction] = []
        self.offset = Fraction(0)  # constant shift of the objective due to bound substitution
        self.maximize = False
        self.var_decomposition: dict[str, dict[int, Fraction]] = {}
        self.var_shift: dict[str, Fraction] = {}

    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        bounds: dict[str, tuple[Fraction | None, Fraction | None]],
        constraints: list[_Constraint],
        objective: dict[str, Fraction],
        maximize: bool,
    ) -> "_Tableau":
        tableau = cls()
        tableau.maximize = maximize

        # 1. Variable substitution to non-negative variables.
        #    x = shift + sum(column_coefficient * column)
        columns: list[tuple[str, object]] = []
        extra_rows: list[tuple[dict[int, Fraction], str, Fraction, tuple[str, object]]] = []

        def new_column(kind: str, payload: object) -> int:
            columns.append((kind, payload))
            return len(columns) - 1

        for name, (low, high) in bounds.items():
            decomposition: dict[int, Fraction] = {}
            shift = Fraction(0)
            if low is not None:
                column = new_column("var+", name)
                decomposition[column] = Fraction(1)
                shift = low
                if high is not None:
                    extra_rows.append(({column: Fraction(1)}, "<=", high - low, ("bound", name)))
            elif high is not None:
                # Only an upper bound: substitute x = high - y with y >= 0.
                column = new_column("var-", name)
                decomposition[column] = Fraction(-1)
                shift = high
            else:
                positive = new_column("var+", name)
                negative = new_column("var-", name)
                decomposition[positive] = Fraction(1)
                decomposition[negative] = Fraction(-1)
            tableau.var_decomposition[name] = decomposition
            tableau.var_shift[name] = shift

        # 2. Rows for the constraints (in terms of the new columns).
        raw_rows: list[tuple[dict[int, Fraction], str, Fraction, tuple[str, object]]] = []
        for index, constraint in enumerate(constraints):
            row: dict[int, Fraction] = {}
            rhs = constraint.rhs
            for name, coefficient in constraint.coefficients.items():
                rhs -= coefficient * tableau.var_shift[name]
                for column, factor in tableau.var_decomposition[name].items():
                    row[column] = row.get(column, Fraction(0)) + coefficient * factor
            raw_rows.append((row, constraint.sense, rhs, ("constraint", index)))
        raw_rows.extend(extra_rows)

        # 3. Slack variables for inequalities; normalise to equality rows.
        slack_columns: dict[int, int] = {}
        for row_index, (row, sense, rhs, origin) in enumerate(raw_rows):
            if sense == "==":
                continue
            column = new_column("slack", row_index)
            slack_columns[row_index] = column

        structural_count = len(columns)

        # 4. Assemble the dense matrix, making all right-hand sides non-negative.
        dense_rows: list[list[Fraction]] = []
        row_origin: list[tuple[str, object]] = []
        for row_index, (row, sense, rhs, origin) in enumerate(raw_rows):
            dense = [Fraction(0)] * structural_count
            for column, value in row.items():
                dense[column] = value
            if sense == "<=":
                dense[slack_columns[row_index]] = Fraction(1)
            elif sense == ">=":
                dense[slack_columns[row_index]] = Fraction(-1)
            if rhs < 0:
                dense = [-value for value in dense]
                rhs = -rhs
            dense.append(rhs)
            dense_rows.append(dense)
            row_origin.append(origin)

        # 5. Artificial variables: one per row lacking an obvious basic column.
        basis: list[int] = []
        artificial_columns: list[int] = []
        for row_index, dense in enumerate(dense_rows):
            basic_column = None
            # A slack column with coefficient +1 can start in the basis.
            for column in range(structural_count):
                if columns[column][0] == "slack" and dense[column] == 1:
                    # Must be the only row using this slack (true by construction).
                    basic_column = column
                    break
            if basic_column is None:
                column_index = structural_count + len(artificial_columns)
                artificial_columns.append(column_index)
                basic_column = column_index
            basis.append(basic_column)

        total_columns = structural_count + len(artificial_columns)
        for row_index, dense in enumerate(dense_rows):
            rhs = dense.pop()
            dense.extend([Fraction(0)] * (total_columns - structural_count))
            if basis[row_index] >= structural_count:
                dense[basis[row_index]] = Fraction(1)
            dense.append(rhs)

        for column_index in range(structural_count, total_columns):
            columns.append(("art", column_index))

        tableau.rows = dense_rows
        tableau.row_origin = row_origin
        tableau.basis = basis
        tableau.initial_basis = list(basis)
        tableau.column_names = columns
        tableau.num_columns = total_columns

        # 6. Objective in terms of the new columns (phase 2 costs).
        costs = [Fraction(0)] * total_columns
        offset = Fraction(0)
        sign = Fraction(-1) if maximize else Fraction(1)
        for name, coefficient in objective.items():
            offset += coefficient * tableau.var_shift.get(name, Fraction(0))
            for column, factor in tableau.var_decomposition.get(name, {}).items():
                costs[column] += sign * coefficient * factor
        tableau.costs = costs
        tableau.offset = offset
        return tableau

    # ------------------------------------------------------------------
    # Simplex machinery
    # ------------------------------------------------------------------

    def _pivot(self, pivot_row: int, pivot_column: int, objective_row: list[Fraction]) -> None:
        row = self.rows[pivot_row]
        pivot_value = row[pivot_column]
        if pivot_value != 1:
            inverse = Fraction(1) / pivot_value
            row = [value * inverse if value else value for value in row]
            self.rows[pivot_row] = row
        # Only the pivot row's non-zero columns (the rhs included) change elsewhere.
        support = [(column, value) for column, value in enumerate(row) if value]
        for other_index, other_row in enumerate(self.rows):
            if other_index == pivot_row:
                continue
            factor = other_row[pivot_column]
            if factor != 0:
                for column, value in support:
                    other_row[column] -= factor * value
        factor = objective_row[pivot_column]
        if factor != 0:
            for column, value in support:
                objective_row[column] -= factor * value
        self.basis[pivot_row] = pivot_column

    def _reduced_objective_row(self, costs: list[Fraction]) -> list[Fraction]:
        """Objective row (reduced costs and negative objective value) for the given costs."""
        objective_row = list(costs) + [Fraction(0)]
        for row_index, column in enumerate(self.basis):
            cost = costs[column] if column < len(costs) else Fraction(0)
            if cost != 0:
                row = self.rows[row_index]
                for column_index in range(len(objective_row)):
                    objective_row[column_index] -= cost * row[column_index]
        return objective_row

    def _run_simplex(
        self, objective_row: list[Fraction], allowed_columns: list[int]
    ) -> LPStatus:
        """Run primal simplex with Bland's rule on the given objective row."""
        max_iterations = 20_000 + 50 * (len(self.rows) + self.num_columns)
        for _ in range(max_iterations):
            entering = None
            for column in allowed_columns:
                if objective_row[column] < 0:
                    entering = column
                    break
            if entering is None:
                return LPStatus.OPTIMAL
            leaving = None
            best_ratio: Fraction | None = None
            for row_index, row in enumerate(self.rows):
                coefficient = row[entering]
                if coefficient > 0:
                    ratio = row[-1] / coefficient
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[row_index] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = row_index
            if leaving is None:
                return LPStatus.UNBOUNDED
            self._pivot(leaving, entering, objective_row)
        raise RuntimeError("simplex failed to converge (iteration limit reached)")

    # ------------------------------------------------------------------

    def solve(self) -> LPSolution:
        structural_count = sum(1 for kind, _ in self.column_names if kind != "art")
        artificial_columns = [
            index for index, (kind, _) in enumerate(self.column_names) if kind == "art"
        ]

        # ----- Phase 1: drive the artificial variables to zero.
        if artificial_columns:
            phase1_costs = [Fraction(0)] * self.num_columns
            for column in artificial_columns:
                phase1_costs[column] = Fraction(1)
            objective_row = self._reduced_objective_row(phase1_costs)
            allowed = list(range(self.num_columns))
            status = self._run_simplex(objective_row, allowed)
            if status is LPStatus.UNBOUNDED:  # pragma: no cover - phase 1 is always bounded
                raise RuntimeError("phase 1 of the simplex cannot be unbounded")
            infeasibility = -objective_row[-1]
            if infeasibility > 0:
                rows = self._infeasibility_certificate(objective_row, artificial_columns)
                return LPSolution(status=LPStatus.INFEASIBLE, infeasible_rows=rows)
            self._remove_artificials_from_basis(structural_count)

        # ----- Phase 2: optimise the real objective over structural columns.
        objective_row = self._reduced_objective_row(self.costs)
        allowed = [index for index in range(self.num_columns) if self.column_names[index][0] != "art"]
        status = self._run_simplex(objective_row, allowed)
        if status is LPStatus.UNBOUNDED:
            return LPSolution(status=LPStatus.UNBOUNDED)

        values = self._extract_solution()
        # The objective value is recomputed from the original coefficients by
        # the caller (LinearProgram.solve), which avoids sign bookkeeping here.
        return LPSolution(status=LPStatus.OPTIMAL, objective=None, values=values)

    # ------------------------------------------------------------------

    def _remove_artificials_from_basis(self, structural_count: int) -> None:
        """Pivot any artificial variable (necessarily at value 0) out of the basis."""
        objective_row = [Fraction(0)] * (self.num_columns + 1)
        for row_index, column in enumerate(self.basis):
            if self.column_names[column][0] != "art":
                continue
            pivot_column = None
            for candidate in range(structural_count):
                if self.rows[row_index][candidate] != 0:
                    pivot_column = candidate
                    break
            if pivot_column is not None:
                self._pivot(row_index, pivot_column, objective_row)
            # Otherwise the row is redundant; the artificial stays basic at 0,
            # which is harmless because phase 2 never lets it increase.

    def _infeasibility_certificate(
        self, objective_row: list[Fraction], artificial_columns: list[int]
    ) -> list[int]:
        """Constraint indices participating in the phase-1 infeasibility proof.

        The dual multiplier of row ``i`` equals ``1 - reduced_cost(artificial_i)``
        whenever row ``i`` received an artificial variable; rows whose
        multiplier is non-zero participate in the Farkas certificate.  Rows
        that never received an artificial variable (their slack started in
        the basis) get multiplier 0 and are therefore never reported.  The
        caller re-verifies the certificate, so over-approximation is safe.
        """
        multipliers: dict[int, Fraction] = {}
        for row_index, column in enumerate(self.initial_basis):
            kind = self.column_names[column][0]
            if kind == "art":
                # Phase-1 cost of an artificial is 1, so reduced cost = 1 - y_i.
                multiplier = Fraction(1) - objective_row[column]
            else:
                # The row started with its slack (+1 coefficient) in the basis;
                # the slack has phase-1 cost 0, so reduced cost = -y_i.
                multiplier = -objective_row[column]
            if multiplier != 0:
                multipliers[row_index] = multiplier
        rows = []
        for row_index in multipliers:
            kind, payload = self.row_origin[row_index]
            if kind == "constraint":
                rows.append(int(payload))
        if not rows:
            # Fall back to "all constraint rows" (always a valid certificate).
            rows = [
                int(payload)
                for kind, payload in self.row_origin
                if kind == "constraint"
            ]
        return sorted(set(rows))

    def _extract_solution(self) -> dict[str, Fraction]:
        column_values = [Fraction(0)] * self.num_columns
        for row_index, column in enumerate(self.basis):
            column_values[column] = self.rows[row_index][-1]
        values: dict[str, Fraction] = {}
        for name, decomposition in self.var_decomposition.items():
            value = self.var_shift[name]
            for column, factor in decomposition.items():
                value += factor * column_values[column]
            values[name] = value
        return values

