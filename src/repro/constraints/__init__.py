"""Solver-agnostic constraint IR, pluggable backends, shared analysis context.

The layer between the verification procedures and the solvers:

* :mod:`repro.constraints.ir` — :class:`ConstraintSystem`: typed
  linear-integer constraint systems with named variable groups;
* :mod:`repro.constraints.incremental` — the pass every block goes through
  on its way to a solver (constant folding, conjunction splitting), and the
  process-wide counters of learned cores and promoted cuts;
* :mod:`repro.constraints.builders` — :class:`ConstraintBuilder`: the
  paper's recurring constraint blocks (flow equations, trap/siphon cuts,
  terminal-pattern memberships) as reusable builders;
* :mod:`repro.constraints.backends` — the :class:`SolverBackend` registry
  (the ``smtlite`` DPLL(T) solver, plus ``z3`` when it imports) behind
  which every property check obtains its solvers;
* :mod:`repro.constraints.context` — :class:`AnalysisContext`: per-protocol
  structural artifacts (terminal patterns, trap/siphon bases, normal form,
  U-sets) computed lazily, exactly once, and shared across property checks.
"""

from repro.constraints.backends import (
    DEFAULT_BACKEND,
    ConstraintSolver,
    SolverBackend,
    available_backends,
    create_solver,
    get_backend,
    register_backend,
    resolve_backend_name,
    unregister_backend,
)
from repro.constraints.builders import (
    ConstraintBuilder,
    TerminalPattern,
    terminal_support_patterns,
)
from repro.constraints.context import AnalysisContext
from repro.constraints.ir import ConstraintSystem

__all__ = [
    "AnalysisContext",
    "ConstraintBuilder",
    "ConstraintSolver",
    "ConstraintSystem",
    "DEFAULT_BACKEND",
    "SolverBackend",
    "TerminalPattern",
    "available_backends",
    "create_solver",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "terminal_support_patterns",
    "unregister_backend",
]
