"""Pluggable solver backends behind a single registry.

The verification layer never constructs a concrete solver any more: it asks
the registry for one (:func:`create_solver`), names travel through
:class:`~repro.api.options.VerificationOptions` / the CLI ``--backend``
flag / the batch engine's option envelopes, and new backends (a z3 adapter,
say) plug in with :func:`register_backend` without touching a property
check.

Three backends ship by default:

``smtlite``
    The lazy DPLL(T) solver of :mod:`repro.smtlite.solver` — CNF + CDCL SAT
    engine + theory checks on demand.  The right choice for systems with
    real boolean structure (the monolithic StrongConsensus encoding, the
    Appendix D.1 partition search).
``scipy-ilp``
    The direct-ILP loop of :mod:`repro.constraints.direct`: the few
    disjunctions of a pattern-factored system are split combinatorially and
    each case goes straight to integer feasibility (HiGHS MILP via scipy
    when available, the exact branch-and-bound otherwise).  Falls back to a
    DPLL(T) mirror if the case product outgrows its budget, so verdicts
    never depend on the budget.
``portfolio``
    A cheapest-first race: a tightly budgeted direct-ILP attempt answers
    the near-conjunctive queries immediately, and anything structurally
    heavier is handed to a persistent DPLL(T) solver.  (The two runners
    share each query sequentially rather than on threads — both are pure
    Python, so a wall-clock race under the GIL would only add overhead.)

Every backend returns objects implementing the :class:`ConstraintSolver`
protocol, which is exactly the incremental surface the verification layer
uses; parity across backends is asserted by the cross-backend tests.

Graceful degradation.  :func:`create_solver` wraps every solver in a
:class:`ResilientSolver`: a backend crashing mid-check (a segfaulting
native library, an injected fault) *demotes* that backend for the rest of
the process and the crashed query — together with the solver's entire
assertion state, replayed from an operation log — moves to the next backend
of :data:`FALLBACK_CHAIN`.  Formulas and linear expressions are
solver-agnostic symbolic objects, so the replay reproduces the exact
constraint store and the fallback verdict is the verdict.  Demotions are
session-wide (new solvers skip demoted backends), observable through
:func:`demoted_backends` / :func:`health_statistics`, reported once per
demotion as a ``backend_degraded`` progress event, and reversible with
:func:`reset_backend_health`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from typing import Protocol, runtime_checkable

from repro.constraints.direct import CaseBudgetExceeded, DirectILPSolver
from repro.obs import trace
from repro.obs.metrics import REGISTRY
from repro.smtlite.formula import Formula
from repro.smtlite.solver import Solver, SolverResult, SolverStatus
from repro.smtlite.terms import LinearExpr


@runtime_checkable
class ConstraintSolver(Protocol):
    """The incremental solver surface the verification layer relies on."""

    statistics: dict

    def int_var(
        self, name: str, lower: int | None = 0, upper: int | None = None
    ) -> LinearExpr: ...

    def add(self, *formulas: Formula) -> None: ...

    def push(self) -> None: ...

    def pop(self) -> None: ...

    def check(self, assumptions: Sequence[Formula] = ()) -> SolverResult: ...

    def check_conjunction(self, formulas: Iterable[Formula]) -> SolverResult: ...


class SolverBackend(Protocol):
    """A named factory of :class:`ConstraintSolver` instances."""

    name: str

    def create_solver(self, theory: str = "auto") -> ConstraintSolver: ...


# ----------------------------------------------------------------------
# The built-in backends
# ----------------------------------------------------------------------


class SmtliteBackend:
    """The lazy DPLL(T) solver (CNF + CDCL SAT + theory lemmas on demand)."""

    name = "smtlite"

    def create_solver(self, theory: str = "auto") -> ConstraintSolver:
        return Solver(theory=theory)


class ScipyILPBackend:
    """Direct ILP case splitting with a DPLL(T) escape hatch."""

    name = "scipy-ilp"

    def __init__(self, max_cases: int = 512):
        self.max_cases = max_cases

    def create_solver(self, theory: str = "auto") -> ConstraintSolver:
        return DirectILPSolver(theory=theory, max_cases=self.max_cases, fallback=True)


class PortfolioSolver:
    """Cheapest-first structural race between direct ILP and DPLL(T).

    Assertions are mirrored into both runners; each :meth:`check` first
    gives the tightly budgeted direct-ILP runner a shot (it answers the
    near-conjunctive queries of the pattern strategies with a handful of
    feasibility calls) and hands everything heavier to the persistent
    DPLL(T) solver, whose learned lemmas accumulate across the session.
    ``statistics`` records which runner answered each query.
    """

    def __init__(self, theory: str = "auto", direct_max_cases: int = 64):
        self._direct = DirectILPSolver(
            theory=theory, max_cases=direct_max_cases, fallback=False
        )
        self._dpllt = Solver(theory=theory)
        self.statistics = {"checks": 0, "direct_wins": 0, "dpllt_wins": 0}

    def int_var(
        self, name: str, lower: int | None = 0, upper: int | None = None
    ) -> LinearExpr:
        self._dpllt.int_var(name, lower=lower, upper=upper)
        return self._direct.int_var(name, lower=lower, upper=upper)

    def add(self, *formulas: Formula) -> None:
        self._direct.add(*formulas)
        self._dpllt.add(*formulas)

    def push(self) -> None:
        self._direct.push()
        self._dpllt.push()

    def pop(self) -> None:
        self._direct.pop()
        self._dpllt.pop()

    @property
    def num_scopes(self) -> int:
        return self._direct.num_scopes

    def check(self, assumptions: Sequence[Formula] = ()) -> SolverResult:
        self.statistics["checks"] += 1
        try:
            result = self._direct.check(assumptions=assumptions)
        except CaseBudgetExceeded:
            self.statistics["dpllt_wins"] += 1
            return self._dpllt.check(assumptions=assumptions)
        if result.status is SolverStatus.UNKNOWN:
            # Theory budget exhausted on the direct path; give the DPLL(T)
            # runner its shot before reporting UNKNOWN.
            self.statistics["dpllt_wins"] += 1
            return self._dpllt.check(assumptions=assumptions)
        self.statistics["direct_wins"] += 1
        return result

    def check_conjunction(self, formulas: Iterable[Formula]) -> SolverResult:
        return self._direct.check_conjunction(formulas)


class PortfolioBackend:
    """The portfolio runner (direct ILP raced against DPLL(T))."""

    name = "portfolio"

    def __init__(self, direct_max_cases: int = 64):
        self.direct_max_cases = direct_max_cases

    def create_solver(self, theory: str = "auto") -> ConstraintSolver:
        return PortfolioSolver(theory=theory, direct_max_cases=self.direct_max_cases)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, SolverBackend] = {}


def register_backend(backend: SolverBackend, replace: bool = False) -> SolverBackend:
    """Register a backend under its ``name``; duplicate names need ``replace=True``."""
    name = getattr(backend, "name", "")
    if not name:
        raise ValueError(f"backend {backend!r} must define a name")
    if not replace and name in _REGISTRY:
        raise ValueError(f"backend {name!r} is already registered (pass replace=True)")
    _REGISTRY[name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a registered backend (mainly for tests and plugin teardown)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> SolverBackend:
    """Look up a backend by name; unknown names raise ``ValueError``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown solver backend {name!r}; available: {', '.join(available_backends())}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Sorted names of all registered backends."""
    return tuple(sorted(_REGISTRY))


#: The backend used when nothing is specified anywhere.
DEFAULT_BACKEND = "smtlite"


def resolve_backend_name(name: str | None) -> str:
    """Map ``None`` (and the empty string) to the default backend name.

    The default honours the ``REPRO_BACKEND`` environment variable (the CI
    backend-matrix hook), so the unified API and the deprecated per-property
    shims resolve to the same backend in the same process.
    """
    if name:
        return name
    import os

    return os.environ.get("REPRO_BACKEND") or DEFAULT_BACKEND


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------

#: Where a crashed backend's work moves: each backend names its fallback
#: (``None`` terminates the chain).  Backends registered by plugins default
#: to falling back on ``smtlite``.
FALLBACK_CHAIN: dict[str, str | None] = {
    "z3": "smtlite",
    "portfolio": "smtlite",
    "smtlite": "scipy-ilp",
    "scipy-ilp": None,
}

_HEALTH_LOCK = threading.Lock()
_DEMOTED: dict[str, str] = {}  # backend name -> reason of first crash
_HEALTH_STATS = {"demotions": 0, "failed_checks": 0, "replays": 0}

#: Registry mirrors of the health counters (``GET /metricsz``): the event
#: family plus per-backend demotions, and the solver-check latency/span
#: surface every backend shares (the ResilientSolver wrapper is the one
#: choke point all verification-layer queries pass through).
_HEALTH_EVENTS = REGISTRY.counter(
    "repro_backend_health_events_total",
    "Backend degradation events: demotions, failed checks, state replays",
)
_DEMOTIONS = REGISTRY.counter(
    "repro_backend_demotions_total",
    "Backends demoted for the rest of the process, by backend name",
)
_CHECK_SECONDS = REGISTRY.histogram(
    "repro_solver_check_seconds",
    "Solver check latency through the resilient wrapper, by backend",
)


def _next_healthy(name: str) -> str | None:
    """The first registered, non-demoted backend down ``name``'s chain."""
    seen = {name}
    current = FALLBACK_CHAIN.get(name, DEFAULT_BACKEND)
    while current is not None and current not in seen:
        seen.add(current)
        if current not in _DEMOTED and current in _REGISTRY:
            return current
        current = FALLBACK_CHAIN.get(current)
    return None


def demote_backend(name: str, reason: str) -> str | None:
    """Mark ``name`` crashed for the rest of the process; return its fallback.

    Idempotent: a backend already demoted (by a sibling solver) keeps its
    first recorded reason and is not double counted.  The first demotion of
    each backend emits a ``backend_degraded`` progress event when the
    calling thread is bound to a job.  Returns ``None`` when nothing
    healthy is left down the chain.
    """
    with _HEALTH_LOCK:
        fresh = name not in _DEMOTED
        if fresh:
            _DEMOTED[name] = reason
            _HEALTH_STATS["demotions"] += 1
        fallback = _next_healthy(name)
    if fresh:
        _HEALTH_EVENTS.inc(event="demotions")
        _DEMOTIONS.inc(backend=name)
    if fresh:
        from repro.engine import monitor

        monitor.emit_backend_degraded(name, fallback or "", reason)
    return fallback


def effective_backend(name: str) -> str:
    """Map a requested backend to the one actually serving it.

    Healthy (or unknown — the registry raises its standard error later)
    names pass through; demoted names resolve down the fallback chain.
    """
    with _HEALTH_LOCK:
        if name not in _DEMOTED:
            return name
        fallback = _next_healthy(name)
    if fallback is None:
        raise RuntimeError(
            f"solver backend {name!r} is demoted ({_DEMOTED[name]}) "
            "and no healthy fallback remains"
        )
    return fallback


def demoted_backends() -> dict[str, str]:
    """The demoted backends of this process, with the reason of each."""
    with _HEALTH_LOCK:
        return dict(_DEMOTED)


def reset_backend_health() -> None:
    """Forget all demotions and zero the health counters (tests, REPLs)."""
    with _HEALTH_LOCK:
        _DEMOTED.clear()
        for key in _HEALTH_STATS:
            _HEALTH_STATS[key] = 0


def health_statistics() -> dict:
    """Process-wide degradation counters plus the current demotion map."""
    with _HEALTH_LOCK:
        return {**_HEALTH_STATS, "demoted": dict(_DEMOTED)}


class ResilientSolver:
    """A :class:`ConstraintSolver` that survives its backend crashing.

    Every state-changing operation (``int_var``/``add``/``push``/``pop``)
    is recorded in an operation log before being forwarded.  When a
    ``check`` raises — a genuinely crashed backend, not a
    :class:`~repro.constraints.direct.CaseBudgetExceeded` control-flow
    signal — the backend is demoted process-wide, the log is replayed into
    a fresh solver from the fallback chain (formulas are solver-agnostic
    symbolic objects, so the replayed constraint store is identical) and
    the crashed query is re-asked there.  Callers never see the crash
    unless the whole chain is exhausted.
    """

    def __init__(self, backend: str | None = None, theory: str = "auto"):
        self.requested = resolve_backend_name(backend)
        self.theory = theory
        self._log: list[tuple[str, tuple]] = []
        self.backend_name = effective_backend(self.requested)
        self._solver = get_backend(self.backend_name).create_solver(theory=theory)

    # -- logged state changes ---------------------------------------------

    def int_var(
        self, name: str, lower: int | None = 0, upper: int | None = None
    ) -> LinearExpr:
        self._log.append(("int_var", (name, lower, upper)))
        return self._solver.int_var(name, lower=lower, upper=upper)

    def add(self, *formulas: Formula) -> None:
        self._log.append(("add", formulas))
        self._solver.add(*formulas)

    def push(self) -> None:
        self._log.append(("push", ()))
        self._solver.push()

    def pop(self) -> None:
        self._log.append(("pop", ()))
        self._solver.pop()

    # -- guarded queries ---------------------------------------------------

    def check(self, assumptions: Sequence[Formula] = ()) -> SolverResult:
        return self._guarded(lambda solver: solver.check(assumptions=assumptions))

    def check_conjunction(self, formulas: Iterable[Formula]) -> SolverResult:
        materialized = list(formulas)
        return self._guarded(lambda solver: solver.check_conjunction(materialized))

    def _guarded(self, query):
        from repro.engine.monitor import JobCancelledError
        from repro.testing import faults

        while True:
            try:
                faults.apply_fault(
                    faults.fire("backend.check", backend=self.backend_name),
                    site="backend.check",
                )
                # The one choke point every solver query passes through:
                # a "solver.check" trace span (free when tracing is off)
                # and the per-backend latency histogram.
                started = time.perf_counter()
                with trace.span(
                    "solver.check",
                    backend=self.backend_name,
                    scope_depth=self.num_scopes,
                ) as span:
                    result = query(self._solver)
                    if span is not None:
                        span.attrs["status"] = result.status.name
                _CHECK_SECONDS.observe(
                    time.perf_counter() - started, backend=self.backend_name
                )
                return result
            except (CaseBudgetExceeded, JobCancelledError):
                # Control flow, not a crash: budget escapes are a documented
                # part of the solver surface, cancellation belongs to the job.
                raise
            except Exception as error:
                with _HEALTH_LOCK:
                    _HEALTH_STATS["failed_checks"] += 1
                _HEALTH_EVENTS.inc(event="failed_checks")
                fallback = demote_backend(
                    self.backend_name, f"{type(error).__name__}: {error}"
                )
                if fallback is None:
                    raise
                self._rebuild(fallback)

    def _rebuild(self, name: str) -> None:
        solver = get_backend(name).create_solver(theory=self.theory)
        for op, args in self._log:
            if op == "int_var":
                solver.int_var(args[0], lower=args[1], upper=args[2])
            elif op == "add":
                solver.add(*args)
            elif op == "push":
                solver.push()
            else:
                solver.pop()
        self.backend_name = name
        self._solver = solver
        with _HEALTH_LOCK:
            _HEALTH_STATS["replays"] += 1
        _HEALTH_EVENTS.inc(event="replays")

    # -- delegation --------------------------------------------------------

    @property
    def statistics(self) -> dict:
        return self._solver.statistics

    @property
    def num_scopes(self) -> int:
        return self._solver.num_scopes

    def __getattr__(self, name: str):
        # Backend-specific extras (model extraction helpers, ...) pass through.
        return getattr(self._solver, name)


def create_solver(backend: str | None = None, theory: str = "auto") -> ConstraintSolver:
    """The one place the verification layer obtains solvers from.

    The returned solver is wrapped for graceful degradation (see
    :class:`ResilientSolver`): a backend crash demotes the backend and the
    query continues on the fallback chain.
    """
    return ResilientSolver(backend=backend, theory=theory)


for _backend in (SmtliteBackend(), ScipyILPBackend(), PortfolioBackend()):
    register_backend(_backend)
del _backend

# The z3 adapter is registered only when its optional dependency imports —
# gated exactly like the scipy theory backend.  With z3 absent, "z3" is
# simply not an available backend name (VerificationOptions rejects it with
# the standard unknown-backend message); with z3 present, the cross-backend
# parity tests pick it up automatically.
from repro.constraints.z3_backend import Z3Backend, z3_available  # noqa: E402

if z3_available():  # pragma: no cover - depends on the optional dependency
    register_backend(Z3Backend())
