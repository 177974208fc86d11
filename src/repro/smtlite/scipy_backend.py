"""Theory backend based on scipy's HiGHS solver.

This backend decides conjunctions of linear integer constraints with HiGHS
branch-and-cut, driven through the ``_Highs`` object that scipy ships
(``scipy.optimize._highspy._core``, scipy >= 1.15; :mod:`repro.smtlite.highs`
loads it without the rest of ``scipy.optimize``), and extracts conflict
cores from the dual multipliers of an *elastic* LP relaxation.  It is
considerably faster than the pure-Python exact backend on the larger
constraint systems produced by the threshold/remainder/flock-of-birds
benchmarks.  Apart from that extension it needs numpy only: matrices are
plain CSR/CSC arrays (:class:`_Rows`), never ``scipy.sparse`` objects.

Incrementality: the DPLL(T) loop and the CEGAR refinement of the
verification layer pose long sequences of closely related conjunctions, so
the backend keeps a grow-only variable→column index and caches the sparse
row of every constraint it has ever seen; each call assembles its CSR
arrays by stacking cached rows and derives the column-wise arrays HiGHS
takes from them.  Columns belonging to variables of earlier calls are
harmless: their coefficients are zero and their bounds default to the
natural numbers.  Each call then passes **one** HiGHS model
(:class:`_HighsModel`) and keeps it for the whole call: the feasibility
solve and every probe of core extraction (the re-check of the elastic-LP
candidate, the dichotomic shrink, the deletion minimisation) run on it.  A
probe keeps a subset of rows by setting the other rows' upper bounds to
``+inf`` — only rows whose state changed are touched — and clears the
solver state before each run, so a probe answers as a fresh model of the
subset would.  The elastic LP is a separate one-shot LP
(:func:`repro.smtlite.highs.solve_lp`) with the inputs and options
``scipy.optimize.linprog(method="highs")`` would give HiGHS.

Known models: every HiGHS run that ends with an optimum leaves its rounded
integer solution in a pool of the session's :data:`_POOL_SIZE` most recent
ones, stored over the grow-only column index.  On its first probe a call
tabulates, in numpy int64 arithmetic over the stored entries, which of its
rows each pooled model satisfies with that row's columns inside the call's
bounds, and adds a column for every solution found afterwards.  A probe
whose rows all hold for one model is answered "not proven" without a HiGHS
run.

Soundness: HiGHS works in floating point, so

* every model is rounded to integers and re-verified exactly
  (:func:`repro.smtlite.theory.verify_model`); if verification fails, or
  HiGHS ends the feasibility solve with neither an optimum nor a proof of
  infeasibility, the query is re-run on the exact backend;
* a subset of rows counts as infeasible only when HiGHS ends its run with
  the model status ``kInfeasible``; any other status (time limit, solver
  or model error) counts as "not proven", so the core keeps the rows;
* a probe answered from a known model is "not proven", which keeps rows
  and is therefore always sound.  The model, checked in exact integer
  arithmetic, witnesses that the subset HiGHS would solve is feasible, so
  HiGHS could only have answered differently by misreporting.  The table
  stays empty when a column's bounds are empty (HiGHS proves every subset
  infeasible there), and leaves out a model when ``max|x|`` times the
  largest row L1 norm could reach ``2**62``, where int64 row values could
  overflow;
* the elastic-LP candidate is re-checked that way before it is used; if
  the check fails the full constraint set is the (always valid) core.

Observability: HiGHS runs by kind (``check``, ``probe``) and probe outcomes
(``proven``, ``unproven``, and ``model`` for probes answered from a known
model without a run) are counted in :data:`repro.obs.metrics.REGISTRY`
(``repro_highs_runs_total``, ``repro_theory_core_probes_total``).  A
``kind="probe"`` run is a real HiGHS run, so it counts the ``proven`` and
``unproven`` probes only.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.obs.metrics import REGISTRY
from repro.smtlite.highs import (
    HighsLp,
    HighsModelStatus,
    HighsStatus,
    HighsVarType,
    MatrixFormat,
    _Highs,
    solve_lp,
)
from repro.smtlite.theory import (
    Bounds,
    ExactTheorySolver,
    TheoryConstraint,
    TheoryResult,
    TheorySolverBase,
    deletion_shrink,
    verify_model,
)

_MARGINAL_TOLERANCE = 1e-7
_FEASIBILITY_TOLERANCE = 1e-6
#: Known integer models kept per session: the most recent ones.
_POOL_SIZE = 64
#: Bound on ``max|x|`` times the largest row L1 norm for a model to be
#: evaluated in int64; half of int64's range absorbs the float norm's rounding.
_INT64_HEADROOM = 2**62

_RUNS = REGISTRY.counter(
    "repro_highs_runs_total",
    "HiGHS MILP runs of the scipy theory backend, by kind (check, probe)",
)
_PROBES = REGISTRY.counter(
    "repro_theory_core_probes_total",
    "Core-extraction probes of the scipy theory backend, by outcome"
    " (proven, unproven; model: answered by a known integer model without a run)",
)

#: A session's pool entry: an integer solution over the column index, and ``max|x|``.
_PooledModel = tuple[np.ndarray, int]


class _Rows(NamedTuple):
    """A sparse matrix by rows (CSR arrays).

    Row ``r`` stores ``data[indptr[r]:indptr[r + 1]]`` at the columns
    ``indices[indptr[r]:indptr[r + 1]]``, each column at most once.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    num_columns: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.indptr) - 1, self.num_columns

    def take(self, rows: Sequence[int]) -> _Rows:
        """The matrix of ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        lengths = np.diff(self.indptr)[rows]
        indptr = np.zeros(len(rows) + 1, dtype=np.int32)
        np.cumsum(lengths, out=indptr[1:])
        positions = np.repeat(self.indptr[rows] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return _Rows(indptr, self.indices[positions], self.data[positions], self.num_columns)

    def columnwise(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The matrix by columns: CSC ``start``, ``index``, ``value``.

        Rows ascend within each column, so these are the arrays scipy's
        ``csr_matrix.tocsc()`` gives.
        """
        num_rows, num_columns = self.shape
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(np.arange(num_rows, dtype=np.int32), np.diff(self.indptr))
        start = np.zeros(num_columns + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.indices, minlength=num_columns), out=start[1:])
        return start, rows[order], self.data[order]

    def row_sums(self, entries: np.ndarray) -> np.ndarray:
        """Sum ``entries`` (indexed like ``data`` along the first axis) within each row."""
        padding = np.zeros((1,) + entries.shape[1:], dtype=entries.dtype)
        sums = np.add.reduceat(np.concatenate((entries, padding)), self.indptr[:-1], axis=0)
        sums[self.indptr[:-1] == self.indptr[1:]] = 0  # reduceat's value for an empty row
        return sums


class _HighsModel:
    """One call's MILP ``A x <= rhs`` over integer columns, with switchable rows.

    Built once per theory call from the stacked rows, the column bounds and
    the right-hand sides; :meth:`solve` answers for every row,
    :meth:`proven_infeasible` for a subset of them.  ``pool`` is the
    session's store of known integer models: optimal runs add to it, and
    probes whose rows one of them satisfies are answered without a run.
    """

    def __init__(
        self,
        matrix: _Rows,
        rhs: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        pool: deque[_PooledModel],
    ):
        self.matrix = matrix
        self.rhs = rhs
        self.lower = lower
        self.upper = upper
        num_rows, num_columns = matrix.shape
        self.columns = matrix.columnwise()
        start, index, value = self.columns
        lp = HighsLp()
        lp.num_col_ = num_columns
        lp.num_row_ = num_rows
        lp.a_matrix_.num_col_ = num_columns
        lp.a_matrix_.num_row_ = num_rows
        lp.a_matrix_.format_ = MatrixFormat.kColwise
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value
        lp.col_cost_ = np.zeros(num_columns)
        lp.col_lower_ = lower
        lp.col_upper_ = upper
        lp.row_lower_ = np.full(num_rows, -np.inf)
        lp.row_upper_ = rhs
        lp.integrality_ = [HighsVarType.kInteger] * num_columns
        self._highs = _Highs()
        self._highs.setOptionValue("log_to_console", False)
        self._loaded = self._highs.passModel(lp) != HighsStatus.kError
        self._kept = np.ones(num_rows, dtype=bool)
        self._time_limit = np.inf
        self._pool = pool
        # Rows x models: the row holds for the model, with the row's columns
        # inside the bounds.  Built on the first probe (see _witnessed).
        self._table: np.ndarray | None = None

    def solve(self) -> tuple[HighsModelStatus, list[float] | None]:
        """Status of the full system and, when optimal, its column values."""
        _RUNS.inc(kind="check")
        status = self._run(np.ones(len(self.rhs), dtype=bool), np.inf)
        if status != HighsModelStatus.kOptimal:
            return status, None
        return status, self._highs.getSolution().col_value

    def proven_infeasible(self, rows: Sequence[int], time_limit: float = np.inf) -> bool:
        """True only when HiGHS ends the run on ``rows`` with status ``kInfeasible``.

        When a known model satisfies ``rows``, HiGHS cannot prove them
        infeasible, so the answer is False without a run.
        """
        rows = list(rows)
        if self._witnessed(rows):
            _PROBES.inc(outcome="model")
            return False
        _RUNS.inc(kind="probe")
        kept = np.zeros(len(self.rhs), dtype=bool)
        kept[rows] = True
        proven = self._run(kept, time_limit) == HighsModelStatus.kInfeasible
        _PROBES.inc(outcome="proven" if proven else "unproven")
        return proven

    def _run(self, kept: np.ndarray, time_limit: float) -> HighsModelStatus:
        if not self._loaded:
            return HighsModelStatus.kModelError
        highs = self._highs
        for row in np.flatnonzero(kept != self._kept):
            highs.changeRowBounds(int(row), -np.inf, self.rhs[row] if kept[row] else np.inf)
        self._kept = kept
        if time_limit != self._time_limit:
            highs.setOptionValue("time_limit", float(time_limit))
            self._time_limit = time_limit
        highs.clearSolver()
        if highs.run() == HighsStatus.kError:
            return HighsModelStatus.kSolveError
        status = highs.getModelStatus()
        if status == HighsModelStatus.kOptimal:
            self._remember(highs.getSolution().col_value)
        return status

    # ------------------------------------------------------------------
    # Known models
    # ------------------------------------------------------------------

    def _witnessed(self, rows: list[int]) -> bool:
        """Whether one known model satisfies every row of ``rows`` exactly."""
        if self._table is None:
            self._table = self._witness_columns(self._pool)
        return bool(self._table[rows].all(axis=0).any())

    def _remember(self, values: Sequence[float]) -> None:
        solution = np.rint(np.asarray(values, dtype=float))
        magnitude = float(np.abs(solution).max(initial=0.0))
        if not magnitude < _INT64_HEADROOM:  # also rejects NaN
            return
        entry = (solution.astype(np.int64), int(magnitude))
        self._pool.append(entry)
        if self._table is not None:
            self._table = np.hstack((self._table, self._witness_columns([entry])))

    @cached_property
    def _integer_system(self) -> tuple | None:
        """``(entries of A, rhs, lower, upper, largest row L1 norm)`` in int64.

        None when a column's bounds are empty: HiGHS then proves every
        subset infeasible, whatever its rows.  Right-hand sides and bounds
        are clipped to ``±2**62``, which no usable model's row values or
        columns reach, so clipping changes no comparison.
        """
        lower, upper = self.lower, self.upper
        if np.any(lower > upper):
            return None
        entries = self.matrix.data.astype(np.int64)
        row_norm = float(self.matrix.row_sums(np.abs(self.matrix.data)).max(initial=0.0))

        def clipped(values: np.ndarray) -> np.ndarray:
            return np.clip(values, -_INT64_HEADROOM, _INT64_HEADROOM).astype(np.int64)

        return entries, clipped(self.rhs), clipped(lower), clipped(upper), row_norm

    def _witness_columns(self, models: Sequence[_PooledModel]) -> np.ndarray:
        """The table's columns for ``models``, leaving out those int64 cannot evaluate."""
        num_rows, num_columns = self.matrix.shape
        system = self._integer_system
        if system is None:
            return np.zeros((num_rows, 0), dtype=bool)
        entries, rhs, lower, upper, row_norm = system
        usable = [solution for solution, magnitude in models if magnitude * row_norm < _INT64_HEADROOM]
        values = np.zeros((num_columns, len(usable)), dtype=np.int64)
        for position, solution in enumerate(usable):
            width = min(num_columns, len(solution))
            values[:width, position] = solution[:width]
        # One row per stored entry of A, one column per model: the entry
        # times its column's value, and whether that value is out of bounds.
        columns = self.matrix.indices
        holds = self.matrix.row_sums(entries[:, None] * values[columns]) <= rhs[:, None]
        outside = (values < lower[:, None]) | (values > upper[:, None])
        return holds & (self.matrix.row_sums(outside[columns].astype(np.int64)) == 0)


class ScipyTheorySolver(TheorySolverBase):
    """Linear integer arithmetic backend using scipy/HiGHS."""

    name = "scipy"

    def __init__(
        self,
        minimize_cores: bool = True,
        core_minimization_budget: int = 16,
        core_shrink_budget: int = 96,
        core_shrink_time_limit: float = 5.0,
    ):
        super().__init__()
        self.minimize_cores = minimize_cores
        self.core_minimization_budget = core_minimization_budget
        self.core_shrink_budget = core_shrink_budget
        self.core_shrink_time_limit = core_shrink_time_limit
        self._exact_fallback = ExactTheorySolver()
        # Grow-only variable -> column index shared by all calls.
        self._var_index: dict[str, int] = {}
        # Cached sparse row (data, column indices) per constraint.
        self._row_cache: dict[TheoryConstraint, tuple[list[float], list[int]]] = {}
        # Known integer models over the column index, shared by all calls.
        self._pool: deque[_PooledModel] = deque(maxlen=_POOL_SIZE)

    # ------------------------------------------------------------------

    def is_satisfiable(self, constraints: Sequence[TheoryConstraint], bounds: Bounds) -> bool:
        """One HiGHS run on a one-shot model (no model verification, no core work)."""
        constraints = list(constraints)
        if not constraints:
            return True
        if not any(constraint.coefficients for constraint in constraints):
            return all(constraint.constant <= 0 for constraint in constraints)
        status, _ = self._model(constraints, bounds).solve()
        if status == HighsModelStatus.kOptimal:
            return True
        if status == HighsModelStatus.kInfeasible:
            return False
        return self._exact_fallback.is_satisfiable(constraints, bounds)

    def check(self, constraints: Sequence[TheoryConstraint], bounds: Bounds) -> TheoryResult:
        constraints = list(constraints)
        variables = sorted(
            {name for constraint in constraints for name in constraint.variables()} | set(bounds)
        )
        if not constraints:
            model = {name: self._default_value(bounds.get(name, (0, None))) for name in variables}
            return TheoryResult(True, model=model)
        if not variables:
            # Constant constraints only.
            if all(constraint.constant <= 0 for constraint in constraints):
                return TheoryResult(True, model={})
            core = [i for i, c in enumerate(constraints) if c.constant > 0]
            return TheoryResult(False, core=core)

        highs_model = self._model(constraints, bounds)
        status, values = highs_model.solve()
        if status == HighsModelStatus.kOptimal:
            index = self._var_index
            model = {name: int(round(values[index[name]])) for name in variables}
            if verify_model(constraints, bounds, model):
                return TheoryResult(True, model=model)
            return self._exact_fallback.check(constraints, bounds)
        if status != HighsModelStatus.kInfeasible:
            # HiGHS decided nothing (solver or model error): ask the exact backend.
            return self._exact_fallback.check(constraints, bounds)

        core = self._extract_core(constraints, bounds, highs_model)
        return TheoryResult(False, core=core)

    # ------------------------------------------------------------------
    # Model building blocks
    # ------------------------------------------------------------------

    @staticmethod
    def _default_value(bound: tuple[int | None, int | None]) -> int:
        lower, upper = bound
        if lower is not None:
            return int(lower)
        if upper is not None:
            return int(upper)
        return 0

    def _model(self, constraints: Sequence[TheoryConstraint], bounds: Bounds) -> _HighsModel:
        self._register_variables(bounds)
        matrix, rhs = self._constraint_matrix(constraints)
        lower, upper = self._bound_arrays(bounds)
        return _HighsModel(matrix, rhs, lower, upper, self._pool)

    def _register_variables(self, bounds: Bounds) -> None:
        index = self._var_index
        for name in bounds:
            if name not in index:
                index[name] = len(index)

    def _constraint_matrix(self, constraints: Sequence[TheoryConstraint]) -> tuple[_Rows, np.ndarray]:
        index = self._var_index
        row_cache = self._row_cache
        data: list[float] = []
        column_indices: list[int] = []
        indptr = np.zeros(len(constraints) + 1, dtype=np.int32)
        rhs = np.empty(len(constraints))
        for row, constraint in enumerate(constraints):
            rhs[row] = -constraint.constant
            cached = row_cache.get(constraint)
            if cached is None:
                # ``TheoryConstraint.from_expr`` names each variable once, with a
                # non-zero coefficient, so a row stores each column once.
                row_data: list[float] = []
                row_columns: list[int] = []
                for name, coefficient in constraint.coefficients:
                    column = index.get(name)
                    if column is None:
                        column = len(index)
                        index[name] = column
                    row_data.append(float(coefficient))
                    row_columns.append(column)
                cached = (row_data, row_columns)
                row_cache[constraint] = cached
            data.extend(cached[0])
            column_indices.extend(cached[1])
            indptr[row + 1] = len(data)
        matrix = _Rows(
            indptr, np.array(column_indices, dtype=np.int32), np.array(data, dtype=float), len(index)
        )
        return matrix, rhs

    def _bound_arrays(self, bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
        num_columns = len(self._var_index)
        lower = np.zeros(num_columns)
        upper = np.full(num_columns, np.inf)
        for name, (low, high) in bounds.items():
            position = self._var_index[name]
            lower[position] = -np.inf if low is None else float(low)
            upper[position] = np.inf if high is None else float(high)
        return lower, upper

    # ------------------------------------------------------------------
    # Conflict cores
    # ------------------------------------------------------------------

    def _extract_core(
        self, constraints: Sequence[TheoryConstraint], bounds: Bounds, model: _HighsModel
    ) -> list[int]:
        all_indices = list(range(len(constraints)))
        candidate = self._elastic_lp_core(model)
        core = None
        if candidate and len(candidate) < len(constraints):
            # Re-verify the candidate with a run on the subset.
            if model.proven_infeasible(candidate):
                core = candidate
        if core is None:
            # No LP certificate (typically integrality-driven infeasibility).
            core = all_indices
        if self.minimize_cores and len(core) > 4:
            # Large cores make weak blocking clauses and the DPLL(T) loop
            # degenerates into near-enumeration of boolean assignments, so
            # spend a bounded number of subset probes shrinking them.
            core = self._dichotomic_shrink(model, core)
        if self.minimize_cores and 4 < len(core) <= self.core_minimization_budget:
            core = self.minimize_core(
                constraints, bounds, core, max_checks=self.core_minimization_budget, model=model
            )
        return core

    def minimize_core(
        self,
        constraints: Sequence[TheoryConstraint],
        bounds: Bounds,
        candidate: Sequence[int],
        max_checks: int = 64,
        model: _HighsModel | None = None,
    ) -> list[int]:
        """Deletion-based minimisation on one HiGHS model (``model``, or a new one).

        A row is dropped only when the rest is proven infeasible, so the
        result is infeasible whenever ``candidate`` is.
        """
        if model is None:
            model = self._model(constraints, bounds)
        return deletion_shrink(candidate, model.proven_infeasible, max_checks)

    def _dichotomic_shrink(self, model: _HighsModel, core: list[int]) -> list[int]:
        """Shrink an unsatisfiable index set by dropping halving chunks.

        ddmin-style: try to remove chunks of decreasing size while the
        remainder stays infeasible.  Costs O(budget) time-limited subset
        probes and typically reduces a full-assignment core to a handful of
        rows, which turns the learned blocking clause from a
        single-assignment exclusion into a real pruning lemma.  Removing
        rows can make the branch-and-bound much harder than the full
        system, so each probe carries a time limit; an undecided probe
        counts as "not proven", which is always sound (the core stays
        larger).
        """
        budget = self.core_shrink_budget
        if budget <= 0 or len(core) <= 4:
            return core
        deadline = time.perf_counter() + self.core_shrink_time_limit
        per_probe = max(self.core_shrink_time_limit / 8.0, 0.25)
        chunk = len(core) // 2
        while chunk >= 1 and budget > 0:
            position = 0
            while position < len(core) and budget > 0:
                if time.perf_counter() > deadline:
                    return core
                trial = core[:position] + core[position + chunk :]
                if not trial:
                    break
                budget -= 1
                if model.proven_infeasible(trial, time_limit=per_probe):
                    core = trial
                else:
                    position += chunk
            chunk //= 2
        return core

    def _elastic_lp_core(self, model: _HighsModel) -> list[int] | None:
        """Dual-based core from the elastic LP ``min sum(s) s.t. Ax - s <= b``.

        If the minimal total violation is positive, the LP relaxation itself
        is infeasible and the rows with non-zero dual multipliers form a
        Farkas-style certificate.
        """
        num_constraints, num_variables = model.matrix.shape
        # [A, -I] by columns: A's columns, then one slack column per row.
        start, index, value = model.columns
        slack_rows = np.arange(num_constraints, dtype=np.int32)
        elastic = (
            np.concatenate((start, start[-1] + 1 + slack_rows)),
            np.concatenate((index, slack_rows)),
            np.concatenate((value, np.full(num_constraints, -1.0))),
        )
        solution = solve_lp(
            np.concatenate((np.zeros(num_variables), np.ones(num_constraints))),
            elastic,
            model.rhs,
            np.concatenate((model.lower, np.zeros(num_constraints))),
            np.concatenate((model.upper, np.full(num_constraints, np.inf))),
        )
        if solution is None:
            return None
        if solution.fun <= _FEASIBILITY_TOLERANCE:
            # LP relaxation is feasible: infeasibility is integrality-driven,
            # no cheap certificate available.
            return None
        return [row for row, dual in enumerate(solution.row_dual) if abs(dual) > _MARGINAL_TOLERANCE]


def __getattr__(name: str):
    # perfbench's tracer reads and rebinds ``optimize``; nothing here calls it.
    # Delete this together with the tracer repair (ROADMAP, measurement spine).
    if name == "optimize":
        from scipy import optimize

        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
