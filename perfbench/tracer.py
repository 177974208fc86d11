"""Outside-in tracing: spans around the public entry points of each layer.

The program is not changed.  :func:`install` rebinds each entry point — a
class method, or a module-level function under every name a ``repro``
module imported it by — to a wrapper that opens a span on a per-thread
stack, because ``Verifier.check`` runs on a service dispatcher thread, and
adds its count, duration and self time to per-name totals.  A span's self
time is its duration minus that of its child spans; spans are not kept.
Counters that the layer's arguments and results reveal (rows in and out of
a core, probe outcomes, delta formulas kept) are recorded at the same
boundaries.

Engine workers are separate processes; their time stays inside the
coordinator's ``engine.wave`` span.
"""

from __future__ import annotations

import functools
import pickle
import sys
import threading
import time
from collections import defaultdict

#: HiGHS status code of a MILP proven infeasible.
_INFEASIBLE = 2


class _Frame:
    __slots__ = ("name", "start", "child", "milp_statuses")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0
        self.milp_statuses = None


class Tracer:
    """Span totals and counters of one process, kept in memory."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.spans = 0
            #: span name -> [count, total seconds, self seconds]
            self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
            self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def enclosing(self, name: str):
        """The innermost open frame of this thread with the given span name."""
        for frame in reversed(self._stack()):
            if frame.name == name:
                return frame
        return None

    def wrap(self, name: str, function, on_exit=None):
        """``function`` recording a span; ``on_exit(args, result, frame, seconds)``."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame(name, time.perf_counter())
            parent = stack[-1] if stack else None
            stack.append(frame)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - frame.start
                stack.pop()
                if parent is not None:
                    parent.child += duration
                with tracer._lock:
                    tracer.spans += 1
                    total = tracer.totals[name]
                    total[0] += 1
                    total[1] += duration
                    total[2] += duration - frame.child
                if on_exit is not None:
                    on_exit(args, result, frame, duration)

        return traced

    def raw(self) -> dict:
        """Span totals and counters as plain sums (mergeable across passes)."""
        with self._lock:
            raw = dict(self.counters)
            for name, (count, total, self_time) in self.totals.items():
                raw[f"{name}.count"] = count
                raw[f"{name}.total_s"] = total
                raw[f"{name}.self_s"] = self_time
            raw["trace.spans"] = self.spans
        return raw


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _wrap_method(tracer: Tracer, cls, method: str, name: str, on_exit=None) -> None:
    setattr(cls, method, tracer.wrap(name, getattr(cls, method), on_exit))


def _wrap_function(tracer: Tracer, module, function: str, name: str, on_exit=None) -> None:
    original = getattr(module, function)
    _rebind(original, tracer.wrap(name, original, on_exit))


class _OptimizeView:
    """``scipy.optimize`` as the theory backend sees it, with HiGHS calls traced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attribute):
        return getattr(self._module, attribute)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points; call once, after importing the program."""
    import repro.api  # noqa: F401  (imports every layer the wrappers name)
    from repro.constraints import builders, incremental
    from repro.engine import scheduler
    from repro.smtlite import sat, scipy_backend, solver
    from repro.verification import correctness, layered_termination, strong_consensus

    # HiGHS, as called from the theory backend only.
    optimize = scipy_backend.optimize

    def on_milp(args, result, frame, seconds):
        check = tracer.enclosing("theory.check")
        if check is not None and result is not None:
            if check.milp_statuses is None:
                check.milp_statuses = []
            check.milp_statuses.append(result.status)

    scipy_backend.optimize = _OptimizeView(
        optimize,
        milp=tracer.wrap("highs.milp", optimize.milp, on_milp),
        linprog=tracer.wrap("highs.lp", optimize.linprog),
    )

    # Theory layer: a check that returns unsat spends everything after its
    # first MILP call on core extraction ("probes").
    def on_theory(args, result, frame, seconds):
        if result is None or result.satisfiable:
            return
        probes = (frame.milp_statuses or [])[1:]
        tracer.count("theory.unsat_calls")
        tracer.count("theory.core_s", seconds)
        tracer.count("theory.core_probes", len(probes))
        tracer.count("theory.core_probes_proven", sum(s == _INFEASIBLE for s in probes))
        tracer.count("theory.core_rows_in", len(args[1]))
        tracer.count("theory.core_rows_out", len(result.core or ()))

    _wrap_method(tracer, scipy_backend.ScipyTheorySolver, "check", "theory.check", on_theory)

    # DPLL(T): SAT search and the solver loop around it.
    _wrap_method(tracer, sat.SatSolver, "solve", "sat.solve")

    def counting_cache(method):
        def call(self, *args, **kwargs):
            before = (self.statistics["theory_cache_hits"], self.statistics["theory_cache_misses"])
            try:
                return method(self, *args, **kwargs)
            finally:
                tracer.count("solver.theory_cache_hits", self.statistics["theory_cache_hits"] - before[0])
                tracer.count(
                    "solver.theory_cache_misses", self.statistics["theory_cache_misses"] - before[1]
                )

        return call

    solver.Solver.check = tracer.wrap("solver.check", counting_cache(solver.Solver.check))
    solver.Solver.check_conjunction = tracer.wrap(
        "solver.conjunction", counting_cache(solver.Solver.check_conjunction)
    )

    # Refinement search.
    def on_refine(args, result, frame, seconds):
        if result is not None:
            tracer.count("refine.found")

    _wrap_function(tracer, strong_consensus, "find_refinement", "refine", on_refine)

    # IR construction, incremental deltas and the analysis context.
    for method in (
        "consensus_base_system",
        "consensus_pair_system",
        "correctness_base_system",
        "correctness_pattern_system",
        "refinement_constraint",
    ):
        _wrap_method(tracer, builders.ConstraintBuilder, method, "ir.build")

    add_delta = incremental.ScopedSimplifier.add_delta

    def counting_delta(self, *formulas):
        # Deltas are conjunction-split before admission; count the parts.
        before = self.stats.constraints_before
        kept = add_delta(self, *formulas)
        tracer.count("ir.delta_in", self.stats.constraints_before - before)
        tracer.count("ir.delta_kept", len(kept))
        return kept

    incremental.ScopedSimplifier.add_delta = tracer.wrap("ir.delta", counting_delta)

    def on_patterns(args, result, frame, seconds):
        tracer.count("context.patterns", len(result or ()))

    _wrap_function(tracer, builders, "terminal_support_patterns", "context.patterns", on_patterns)

    # Properties.
    _wrap_function(tracer, strong_consensus, "check_strong_consensus_impl", "consensus")
    _wrap_function(tracer, layered_termination, "check_layered_termination_impl", "termination")
    for function in ("smt_partition_search", "scc_heuristic_partition"):
        _wrap_function(tracer, layered_termination, function, "termination.partition_search")
    _wrap_function(tracer, correctness, "check_correctness_impl", "correctness")

    # Engine: one span per wave; the envelope is the pickled subproblem list.
    original_wave = scheduler.VerificationEngine.run_wave

    def run_wave(self, subproblems, *args, **kwargs):
        tracer.count("engine.envelope_bytes", len(pickle.dumps(list(subproblems))))
        tracer.count("engine.subproblems", len(subproblems))
        return original_wave(self, subproblems, *args, **kwargs)

    scheduler.VerificationEngine.run_wave = tracer.wrap("engine.wave", run_wave)
