"""Correctness of a (well-specified) protocol against a predicate.

Section 6 of the paper describes an extension of the well-specification
check: *given* a protocol that belongs to WS³ and a predicate φ over its
inputs, check that the protocol actually computes φ.  The constraint system
asks for an input ``X`` and a terminal configuration ``C`` potentially
reachable from ``I(X)`` such that ``O(C) ≠ φ(X)``; if no such pair exists
(after trap/siphon refinement) the protocol is correct.

Predicates must offer the small interface implemented by
:mod:`repro.presburger.predicates`:

* ``formula(input_vars)`` — a :class:`repro.smtlite.formula.Formula` saying
  "φ holds for the input whose symbol counts are ``input_vars``";
* ``negation_formula(input_vars)`` — the same for ¬φ;
* ``evaluate(input_population)`` — concrete evaluation (used by tests and by
  the explicit-state baseline).

The predicate's formulas are compiled into the constraint IR
(:func:`repro.presburger.ir.predicate_system`) together with the terminal
pattern block, constant-folded, and handed to whichever solver backend the
registry provides; like the StrongConsensus check, all structural
artifacts come from the shared :class:`AnalysisContext`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol as TypingProtocol

from repro.constraints.backends import create_solver, resolve_backend_name
from repro.constraints.builders import ConstraintBuilder
from repro.constraints.context import AnalysisContext
from repro.constraints.incremental import ScopedSimplifier, bump
from repro.constraints.ir import DEFAULT_BOUND
from repro.datatypes.multiset import Multiset
from repro.engine import monitor
from repro.protocols.protocol import PopulationProtocol
from repro.smtlite.formula import Formula
from repro.smtlite.solver import SolverStatus
from repro.verification.results import CorrectnessCounterexample, RefinementStep
from repro.verification.strong_consensus import find_refinement


class PredicateLike(TypingProtocol):
    """Structural interface required of predicates."""

    def formula(self, input_vars: dict) -> Formula: ...

    def negation_formula(self, input_vars: dict) -> Formula: ...

    def evaluate(self, input_population) -> bool: ...


@dataclass
class CorrectnessResult:
    """Outcome of the correctness check."""

    holds: bool
    counterexample: CorrectnessCounterexample | None = None
    refinements: list[RefinementStep] = field(default_factory=list)
    statistics: dict = field(default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


def check_correctness_impl(
    protocol: PopulationProtocol,
    predicate: PredicateLike,
    theory: str = "auto",
    max_refinements: int = 10_000,
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> CorrectnessResult:
    """Check that a protocol computes ``predicate``.

    The check is sound for protocols in WS³: a well-specified silent protocol
    stabilises, for every input, to the output of some reachable terminal
    configuration, and every reachable terminal configuration is potentially
    reachable, so if no potentially-reachable terminal configuration carries
    the wrong output the protocol computes the predicate.
    """
    if context is None:
        context = AnalysisContext(protocol)
    start = time.perf_counter()
    refinements: list[RefinementStep] = []
    statistics = {"iterations": 0, "traps": 0, "siphons": 0, "solver_instances": 1}

    # One persistent solver for both output directions and all terminal
    # support patterns (cf. the StrongConsensus check): the input encoding,
    # flow variables, non-negativity constraints and every cut found so far
    # live at base level, the per-direction/per-pattern constraints live in
    # push/pop scopes, and lemmas learned while refuting one pattern carry
    # over to the next.
    builder = context.builder
    solver = create_solver(backend, theory=theory)
    variables = builder.correctness_variables()
    _input_vars, c0, c1, x1 = variables
    scoped = ScopedSimplifier(builder.correctness_base_system(variables))
    scoped.system.assert_into(solver)
    predicate_memo: dict[int, tuple] = {}

    def promote_cuts(new_steps: list[RefinementStep]) -> None:
        """Assert a pattern's new cuts once, at base level, in general form."""
        for step in new_steps:
            cut = builder.refinement_constraint(step, c0, c1, x1)
            for formula in scoped.add_delta(cut):
                solver.add(formula)
            bump("cuts_promoted_to_base")

    def finish(result: CorrectnessResult) -> CorrectnessResult:
        statistics["solver"] = dict(solver.statistics)
        statistics["simplifier"] = scoped.stats.to_dict()
        statistics["backend"] = resolve_backend_name(backend)
        statistics["time"] = time.perf_counter() - start
        return result

    patterns = context.terminal_patterns
    for expected_output in (1, 0):
        wrong_output = 1 - expected_output
        for pattern in patterns:
            if not pattern.admits_output(protocol, wrong_output):
                continue
            # Cooperative checkpoint between patterns (service jobs).
            monitor.check_cancelled()
            statistics["pattern_pairs"] = statistics.get("pattern_pairs", 0) + 1
            pattern_start = len(refinements)
            solver.push()
            try:
                outcome = _solve_pattern(
                    protocol,
                    builder,
                    solver,
                    variables,
                    predicate,
                    expected_output,
                    pattern,
                    max_refinements,
                    refinements,
                    statistics,
                    context,
                    scoped,
                    predicate_memo,
                )
            finally:
                solver.pop()
            promote_cuts(refinements[pattern_start:])
            if outcome is not None:
                return finish(
                    CorrectnessResult(
                        holds=False,
                        counterexample=outcome,
                        refinements=refinements,
                        statistics=statistics,
                    )
                )
    return finish(CorrectnessResult(holds=True, refinements=refinements, statistics=statistics))


def _solve_pattern(
    protocol: PopulationProtocol,
    builder: ConstraintBuilder,
    solver,
    variables: tuple,
    predicate: PredicateLike,
    expected_output: int,
    pattern,
    max_refinements: int,
    refinements: list[RefinementStep],
    statistics: dict,
    context: AnalysisContext,
    scoped: ScopedSimplifier,
    predicate_memo: dict,
) -> CorrectnessCounterexample | None:
    """Run the refinement loop for one pattern inside an open solver scope.

    Earlier patterns' cuts already live at base level in general form, so
    the delta is only the pattern membership, the wrong-output constraint
    and the (per-direction memoized) compiled predicate; new cuts are
    asserted in general form and re-promoted to base by the caller after
    pop.  Equivalence with the specialized ``target_support`` form holds
    under pattern membership exactly as in the StrongConsensus check.
    """
    from repro.presburger.ir import predicate_system

    input_vars, c0, c1, x1 = variables
    supports = context.transition_supports
    entry = predicate_memo.get(expected_output)
    if entry is None:
        compiled = predicate_system(predicate, input_vars, negate=(expected_output == 0))
        entry = (dict(compiled.bounds), list(compiled.constraints))
        predicate_memo[expected_output] = entry
    pred_bounds, pred_constraints = entry
    # The predicate's fresh existential variables (e.g. remainder
    # quotients) are declared on the solver, which never retracts a
    # declaration on pop.  Re-declaring on a later scope with the same
    # direction is idempotent.
    for variable, (lower, upper) in pred_bounds.items():
        if (lower, upper) != DEFAULT_BOUND:
            solver.int_var(variable, lower=lower, upper=upper)
    delta = [
        builder.pattern(c1, pattern),
        builder.has_output(c1, 1 - expected_output),
        *pred_constraints,
    ]
    for formula in scoped.add_delta(*delta):
        solver.add(formula)

    for iteration in range(max_refinements):
        statistics["iterations"] += 1
        result = solver.check()
        if result.status is SolverStatus.UNSAT:
            return None
        if result.status is SolverStatus.UNKNOWN:
            raise RuntimeError("the constraint solver could not decide the correctness query")

        model = result.model
        initial = builder.configuration_from_model(model, c0)
        terminal = builder.configuration_from_model(model, c1)
        flow = builder.flow_from_model(model, x1)
        step = find_refinement(protocol, initial, terminal, flow, supports=supports)
        if step is None:
            input_population = Multiset(
                {
                    symbol: model.value(variable)
                    for symbol, variable in input_vars.items()
                    if model.value(variable) > 0
                }
            )
            return CorrectnessCounterexample(
                input_population=input_population,
                initial=initial,
                terminal=terminal,
                flow=flow,
                expected_output=expected_output,
            )
        step = RefinementStep(kind=step.kind, states=step.states, iteration=iteration)
        refinements.append(step)
        statistics["traps" if step.kind == "trap" else "siphons"] += 1
        monitor.emit_refinement_found(step.kind, step.states, step.iteration)
        for formula in scoped.add_delta(builder.refinement_constraint(step, c0, c1, x1)):
            solver.add(formula)
    raise RuntimeError(
        f"correctness refinement did not converge within {max_refinements} iterations"
    )
