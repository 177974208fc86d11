"""Linear integer terms.

A :class:`LinearExpr` is an immutable linear expression ``sum_i a_i * x_i + c``
with integer coefficients over named integer variables.  Comparisons between
expressions produce :class:`~repro.smtlite.formula.Atom` objects (or boolean
constants when both sides are constant), so constraint systems can be written
with ordinary Python operators::

    x, y = IntVar("x"), IntVar("y")
    constraint = (2 * x + y <= 7) & (x >= 1)
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from numbers import Integral


class LinearExpr:
    """An immutable linear expression with integer coefficients."""

    __slots__ = ("coefficients", "constant")

    def __init__(self, coefficients: Mapping[str, int] | None = None, constant: int = 0):
        coeffs: dict[str, int] = {}
        for name, value in (coefficients or {}).items():
            if type(value) is not int:
                if not isinstance(value, Integral):
                    raise TypeError(f"coefficient of {name!r} must be an integer, got {value!r}")
                value = int(value)
            if value != 0:
                coeffs[name] = value
        if not isinstance(constant, Integral):
            raise TypeError(f"constant must be an integer, got {constant!r}")
        self.coefficients: dict[str, int] = coeffs
        self.constant: int = int(constant)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def constant_expr(cls, value: int) -> "LinearExpr":
        return cls({}, value)

    @classmethod
    def variable(cls, name: str) -> "LinearExpr":
        return cls({name: 1}, 0)

    @classmethod
    def sum_of(cls, expressions: Iterable["LinearExpr | int"]) -> "LinearExpr":
        """Sum an iterable of expressions (and plain integers).

        Equal to folding with ``+``, coefficient order included: one dict
        accumulates every term, and a coefficient that cancels to zero
        leaves it, so it re-enters at the end as the fold's would.
        """
        coefficients: dict[str, int] = {}
        constant = 0
        for expression in expressions:
            if not isinstance(expression, LinearExpr):
                if not isinstance(expression, Integral):
                    raise TypeError(f"cannot add {expression!r} to a linear expression")
                constant += int(expression)
                continue
            for name, value in expression.coefficients.items():
                total = coefficients.get(name, 0) + value
                if total:
                    coefficients[name] = total
                else:
                    del coefficients[name]
            constant += expression.constant
        return cls(coefficients, constant)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def variables(self) -> frozenset[str]:
        return frozenset(self.coefficients)

    def is_constant(self) -> bool:
        return not self.coefficients

    def coefficient(self, name: str) -> int:
        return self.coefficients.get(name, 0)

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Evaluate under a (total, for the variables used) integer assignment."""
        value = self.constant
        for name, coefficient in self.coefficients.items():
            if name not in assignment:
                raise KeyError(f"no value for variable {name!r}")
            value += coefficient * assignment[name]
        return value

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(value: "LinearExpr | int") -> "LinearExpr":
        if isinstance(value, LinearExpr):
            return value
        if isinstance(value, Integral):
            return LinearExpr({}, int(value))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "LinearExpr | int") -> "LinearExpr":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        coeffs = dict(self.coefficients)
        for name, value in other.coefficients.items():
            coeffs[name] = coeffs.get(name, 0) + value
        return LinearExpr(coeffs, self.constant + other.constant)

    def __radd__(self, other: "LinearExpr | int") -> "LinearExpr":
        return self.__add__(other)

    def __neg__(self) -> "LinearExpr":
        return LinearExpr({name: -value for name, value in self.coefficients.items()}, -self.constant)

    def __sub__(self, other: "LinearExpr | int") -> "LinearExpr":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "LinearExpr | int") -> "LinearExpr":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, factor: int) -> "LinearExpr":
        if not isinstance(factor, Integral):
            return NotImplemented
        factor = int(factor)
        return LinearExpr(
            {name: value * factor for name, value in self.coefficients.items()},
            self.constant * factor,
        )

    def __rmul__(self, factor: int) -> "LinearExpr":
        return self.__mul__(factor)

    # ------------------------------------------------------------------
    # Comparisons produce atoms (imported lazily to avoid a cycle)
    # ------------------------------------------------------------------

    def _atom(self, other: "LinearExpr | int", kind: str):
        from repro.smtlite import formula

        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return formula.compare(self, other, kind)

    def __le__(self, other):
        return self._atom(other, "<=")

    def __ge__(self, other):
        return self._atom(other, ">=")

    def __lt__(self, other):
        return self._atom(other, "<")

    def __gt__(self, other):
        return self._atom(other, ">")

    def eq(self, other):
        """Equality atom (named method because ``__eq__`` is structural equality)."""
        return self._atom(other, "==")

    def ne(self, other):
        """Disequality (expands to a disjunction of strict inequalities)."""
        return self._atom(other, "!=")

    # ------------------------------------------------------------------
    # Structural equality / hashing / printing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearExpr):
            return NotImplemented
        return self.coefficients == other.coefficients and self.constant == other.constant

    def __hash__(self) -> int:
        return hash((frozenset(self.coefficients.items()), self.constant))

    def __repr__(self) -> str:
        if not self.coefficients:
            return f"LinearExpr({self.constant})"
        terms = []
        for name in sorted(self.coefficients):
            coefficient = self.coefficients[name]
            if coefficient == 1:
                terms.append(f"{name}")
            elif coefficient == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{coefficient}*{name}")
        rendered = " + ".join(terms).replace("+ -", "- ")
        if self.constant:
            rendered += f" + {self.constant}" if self.constant > 0 else f" - {-self.constant}"
        return f"LinearExpr({rendered})"


def IntVar(name: str) -> LinearExpr:
    """An integer variable as a linear expression.

    Variable *bounds* (lower/upper) are declared on the
    :class:`~repro.smtlite.solver.Solver`, not on the expression.
    """
    if not isinstance(name, str) or not name:
        raise TypeError("variable names must be non-empty strings")
    return LinearExpr.variable(name)


def linear_sum(pairs: Iterable[tuple[int, "LinearExpr | str"]], constant: int = 0) -> LinearExpr:
    """Build ``sum coefficient * term + constant`` efficiently.

    ``pairs`` may mix variable names and linear expressions.
    """
    coefficients: dict[str, int] = {}
    total_constant = constant
    for coefficient, term in pairs:
        if isinstance(term, str):
            coefficients[term] = coefficients.get(term, 0) + coefficient
            continue
        for name, value in term.coefficients.items():
            coefficients[name] = coefficients.get(name, 0) + coefficient * value
        total_constant += coefficient * term.constant
    return LinearExpr(coefficients, total_constant)
