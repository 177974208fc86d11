"""Pluggable solver backends behind a single registry.

The verification layer never constructs a concrete solver: it asks the
registry for one (:func:`create_solver`), names travel through
:class:`~repro.api.options.VerificationOptions` / the CLI ``--backend``
flag / the batch engine's option envelopes, and further backends plug in
with :func:`register_backend` without touching a property check.

One backend ships by default, ``smtlite``: the lazy DPLL(T) solver of
:mod:`repro.smtlite.solver` (CNF + CDCL SAT engine + integer theory checks
on demand), which decides exactly the boolean combinations of linear
constraints over the naturals that the WS³ reduction produces.  The
optional ``z3`` adapter (:mod:`repro.constraints.z3_backend`) registers
itself when z3 imports; it is the independent reference the cross-backend
parity tests compare verdicts against.

Every backend returns objects implementing the :class:`ConstraintSolver`
protocol, which is exactly the incremental surface the verification layer
uses.

Graceful degradation.  :func:`create_solver` wraps every solver in a
:class:`ResilientSolver`: a solver crashing mid-check (a segfaulting native
library, an injected fault) *demotes* its backend for the rest of the
process, and the crashed query — together with the solver's entire
assertion state, replayed from an operation log — moves down the chain
``z3 → smtlite → smtlite on the exact theory solver``.  The last hop swaps
the scipy (HiGHS) theory solver for the pure-Python exact one; a crash on
the exact theory re-raises.  Formulas and linear expressions are
solver-agnostic symbolic objects, so the replay reproduces the exact
constraint store and the fallback verdict is the verdict.  Demotions are
session-wide (new solvers start where the chain left off), observable
through :func:`demoted_backends` / :func:`health_statistics`, reported once
per demotion as a ``backend_degraded`` progress event, and reversible with
:func:`reset_backend_health`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from typing import Protocol, runtime_checkable

from repro.obs import trace
from repro.obs.metrics import REGISTRY
from repro.smtlite.formula import Formula
from repro.smtlite.solver import Solver, SolverResult
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
# The built-in backend
# ----------------------------------------------------------------------


class SmtliteBackend:
    """The lazy DPLL(T) solver (CNF + CDCL SAT + theory lemmas on demand)."""

    name = "smtlite"

    def create_solver(self, theory: str = "auto") -> ConstraintSolver:
        return Solver(theory=theory)


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
    """Map ``None`` (and the empty string) to the default backend name."""
    return name or DEFAULT_BACKEND


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------

_HEALTH_LOCK = threading.Lock()
_DEMOTED: dict[str, str] = {}  # backend name -> reason of first crash

#: The health counters (:func:`health_statistics`, ``GET /metricsz``): the
#: event family plus per-backend demotions, and the solver-check latency/span
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


def demote_backend(name: str, reason: str) -> None:
    """Mark ``name`` crashed for the rest of the process.

    Its fallback is always ``smtlite``: every other backend falls back on
    it, and a demoted ``smtlite`` keeps serving on the exact theory solver
    (see :func:`_effective_theory`).  Idempotent: a backend already demoted
    (by a sibling solver) keeps its first recorded reason and is not double
    counted.  The first demotion of each backend emits a
    ``backend_degraded`` progress event when the calling thread is bound to
    a job.
    """
    with _HEALTH_LOCK:
        fresh = name not in _DEMOTED
        if fresh:
            _DEMOTED[name] = reason
    if fresh:
        _HEALTH_EVENTS.inc(event="demotions")
        _DEMOTIONS.inc(backend=name)
        from repro.engine import monitor

        monitor.emit_backend_degraded(name, DEFAULT_BACKEND, reason)


def effective_backend(name: str) -> str:
    """Map a requested backend to the one actually serving it.

    Healthy (or unknown — the registry raises its standard error later)
    names pass through; demoted names resolve to ``smtlite``, which always
    serves.
    """
    with _HEALTH_LOCK:
        return DEFAULT_BACKEND if name in _DEMOTED else name


def _effective_theory(backend: str, theory: str) -> str:
    """The theory preference a new solver of ``backend`` is created with.

    Once ``smtlite`` has been demoted it runs on the exact theory solver
    instead of the scipy (HiGHS) one: the last hop of the chain.
    """
    with _HEALTH_LOCK:
        smtlite_demoted = DEFAULT_BACKEND in _DEMOTED
    return "exact" if backend == DEFAULT_BACKEND and smtlite_demoted else theory


def demoted_backends() -> dict[str, str]:
    """The demoted backends of this process, with the reason of each."""
    with _HEALTH_LOCK:
        return dict(_DEMOTED)


def reset_backend_health() -> None:
    """Forget all demotions and zero the health counters (tests, REPLs)."""
    with _HEALTH_LOCK:
        _DEMOTED.clear()
    _HEALTH_EVENTS.reset()
    _DEMOTIONS.reset()


def health_statistics() -> dict:
    """Process-wide degradation counters plus the current demotion map."""
    counts = _HEALTH_EVENTS.counts(("demotions", "failed_checks", "replays"))
    return {**counts, "demoted": demoted_backends()}


class ResilientSolver:
    """A :class:`ConstraintSolver` that survives its backend crashing.

    Every state-changing operation (``int_var``/``add``/``push``/``pop``)
    is recorded in an operation log before being forwarded.  When a
    ``check`` raises — a genuinely crashed solver, not a job cancellation —
    the backend is demoted process-wide, the log is replayed into a fresh
    solver one hop down the chain (formulas are solver-agnostic symbolic
    objects, so the replayed constraint store is identical) and the crashed
    query is re-asked there.  Callers see the crash only when it happens on
    smtlite with the exact theory solver, the end of the chain.
    """

    def __init__(self, backend: str | None = None, theory: str = "auto"):
        self.requested = resolve_backend_name(backend)
        self.theory = theory
        self._log: list[tuple[str, tuple]] = []
        self.backend_name = effective_backend(self.requested)
        self._solver = get_backend(self.backend_name).create_solver(
            theory=_effective_theory(self.backend_name, theory)
        )

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
            except JobCancelledError:
                # Control flow, not a crash: cancellation belongs to the job.
                raise
            except Exception as error:
                _HEALTH_EVENTS.inc(event="failed_checks")
                if self.backend_name == DEFAULT_BACKEND and self._solver.theory_name == "exact":
                    raise  # the end of the chain
                demote_backend(self.backend_name, f"{type(error).__name__}: {error}")
                self._rebuild()

    def _rebuild(self) -> None:
        """Replay the operation log into a fresh smtlite solver."""
        solver = get_backend(DEFAULT_BACKEND).create_solver(
            theory=_effective_theory(DEFAULT_BACKEND, self.theory)
        )
        for op, args in self._log:
            if op == "int_var":
                solver.int_var(args[0], lower=args[1], upper=args[2])
            elif op == "add":
                solver.add(*args)
            elif op == "push":
                solver.push()
            else:
                solver.pop()
        self.backend_name = DEFAULT_BACKEND
        self._solver = solver
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
    :class:`ResilientSolver`): a solver crash demotes its backend and the
    query continues one hop down the chain.
    """
    return ResilientSolver(backend=backend, theory=theory)


register_backend(SmtliteBackend())

# The z3 adapter is registered only when its optional dependency imports —
# gated exactly like the scipy theory backend.  With z3 absent, "z3" is
# simply not an available backend name (VerificationOptions rejects it with
# the standard unknown-backend message); with z3 present, the cross-backend
# parity tests pick it up automatically.
from repro.constraints.z3_backend import Z3Backend, z3_available  # noqa: E402

if z3_available():  # pragma: no cover - depends on the optional dependency
    register_backend(Z3Backend())
