"""scipy's HiGHS binding, loaded on its own, and one LP helper.

scipy (>= 1.15) ships the HiGHS solver as the extension module
``scipy.optimize._highspy._core``.  Importing it by name first runs the
package init of ``scipy.optimize``, which imports scipy.linalg, scipy.fft,
scipy.special and scipy.sparse — most of a cold start's import time, none
of it needed here.  So the extension is loaded straight from its file and
registered in :data:`sys.modules` under its real name: a later
``import scipy.optimize`` finds it there and reuses it, so ``_Highs`` stays
one class per process.  When the file is not where scipy's layout puts it,
or loading it fails, the module is imported by name instead.

:func:`solve_lp` solves ``min c·x`` subject to ``A x <= b`` and column
bounds exactly as ``scipy.optimize.linprog(method="highs")`` does: the same
arrays, the same HiGHS options, a fresh ``_Highs`` per LP (a reused one
could warm-start and return other duals), and linprog's own acceptance test
of the solution.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import numpy as np

_CORE = "scipy.optimize._highspy._core"


def _extension_file() -> Path | None:
    """Where scipy's layout puts the HiGHS extension, without importing scipy."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    for location in scipy.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(location, "optimize", "_highspy", f"_core{suffix}")
            if path.is_file():
                return path
    return None


def _load_core() -> ModuleType:
    loaded = sys.modules.get(_CORE)
    if loaded is not None:
        return loaded
    path = _extension_file()
    spec = importlib.util.spec_from_file_location(_CORE, path) if path is not None else None
    if spec is not None and spec.loader is not None:
        try:
            # An extension module is loaded (dlopen) by module_from_spec itself.
            module = importlib.util.module_from_spec(spec)
            sys.modules[_CORE] = module
            spec.loader.exec_module(module)
        except ImportError:
            sys.modules.pop(_CORE, None)
        else:
            return module
    return importlib.import_module(_CORE)


_core = _load_core()
HighsLp = _core.HighsLp
HighsModelStatus = _core.HighsModelStatus
HighsStatus = _core.HighsStatus
HighsVarType = _core.HighsVarType
MatrixFormat = _core.MatrixFormat
_Highs = _core._Highs

#: ``linprog``'s acceptance tolerance: ``sqrt(1e-9) * 10`` (``_check_result``).
_ACCEPT_TOLERANCE = np.sqrt(1e-9) * 10


class LpSolution(NamedTuple):
    """An optimal LP solution: column values, objective and row duals (linprog's marginals)."""

    x: np.ndarray
    fun: float
    row_dual: np.ndarray


def solve_lp(
    cost: np.ndarray,
    columns: tuple[np.ndarray, np.ndarray, np.ndarray],
    row_upper: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
) -> LpSolution | None:
    """``min cost·x`` s.t. ``A x <= row_upper``, ``col_lower <= x <= col_upper``.

    ``columns`` is ``A`` column-wise (CSC: ``start``, row ``index``,
    ``value``, rows ascending within a column), as ``linprog`` passes it.
    None unless HiGHS ends with ``kOptimal`` and the solution passes
    linprog's check (no NaN, bounds and rows hold within its tolerance);
    that is, exactly when ``linprog(...).success`` would be true.
    """
    start, index, value = columns
    num_columns, num_rows = len(cost), len(row_upper)
    lp = HighsLp()
    lp.num_col_ = num_columns
    lp.num_row_ = num_rows
    lp.a_matrix_.num_col_ = num_columns
    lp.a_matrix_.num_row_ = num_rows
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    lp.col_cost_ = cost
    lp.col_lower_ = col_lower
    lp.col_upper_ = col_upper
    lp.row_lower_ = np.full(num_rows, -np.inf)
    lp.row_upper_ = row_upper
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value

    highs = _Highs()
    options = _core.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = 0  # kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = 1  # kSimplexStrategyDual
    if highs.passOptions(options) == HighsStatus.kError:
        return None
    if highs.passModel(lp) == HighsStatus.kError:
        return None
    if highs.run() == HighsStatus.kError:
        return None
    if highs.getModelStatus() != HighsModelStatus.kOptimal:
        return None
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    slack = row_upper - np.asarray(solution.row_value)
    tolerance = _ACCEPT_TOLERANCE
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any():
        return None
    if not np.all((x >= col_lower - tolerance) & (x <= col_upper + tolerance)):
        return None
    if (slack < -tolerance).any():
        return None
    return LpSolution(x, fun, np.array(solution.row_dual))
