"""StrongConsensus (Definition 14, Section 4.2) via the CEGAR loop of Section 6.

A protocol satisfies *StrongConsensus* if no initial configuration can
*potentially* reach (Definition 12: flow equations + trap/siphon constraints)
two terminal configurations whose outputs disagree.  Following the paper's
implementation we do not eagerly enumerate traps and siphons (there can be
exponentially many); instead we run a counterexample-guided refinement loop:

1. assert the flow equations, the initial/terminal/True/False constraints of
   Appendix D.2 and the trap/siphon constraints collected so far;
2. if unsatisfiable, StrongConsensus holds;
3. otherwise take the model ``(C0, C1, C2, x1, x2)``, compute (greedily, in
   polynomial time) the maximal ``U_j``-trap unpopulated in ``C_j`` and the
   maximal ``U_j``-siphon unpopulated in ``C0`` for ``j = 1, 2``;
4. if one of them witnesses a violated trap/siphon condition, add the
   corresponding constraint and repeat; otherwise the model is a genuine
   counterexample and StrongConsensus fails.

Constraint blocks are assembled by the shared IR builders
(:mod:`repro.constraints.builders`), constant-folded and split into
conjuncts (:class:`~repro.constraints.incremental.ScopedSimplifier`) and
solved by whichever backend the registry provides (:mod:`repro.constraints.backends`); structural artifacts
(terminal patterns, the trap/siphon basis) come from the per-protocol
:class:`~repro.constraints.context.AnalysisContext` so they are computed at
most once per protocol, however many properties a session checks.

Solving strategies
------------------

The paper hands the whole constraint system — whose only hard boolean
structure is the big conjunction-of-disjunctions ``Terminal(c)`` — to Z3.
Our from-scratch solvers are far weaker than Z3 at pruning that boolean
structure, so the default strategy factors it out combinatorially:
``Terminal(c)`` only constrains the *support* of ``c`` (it must be an
independent set of the "interaction conflict graph", with agents of a state
that reacts with itself capped at one), so we enumerate the maximal
independent sets once and solve one small, almost purely conjunctive system
per pair of candidate supports.  For all protocol families from the paper
the number of maximal independent sets is linear in the number of states.
The paper's monolithic encoding is kept as an alternative strategy (used by
the ablation benchmark and for small protocols).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.constraints.backends import create_solver, resolve_backend_name
from repro.constraints.builders import (  # noqa: F401  (re-exported legacy surface)
    ConstraintBuilder,
    TerminalPattern,
    terminal_support_patterns,
)
from repro.constraints.context import AnalysisContext
from repro.constraints.incremental import ScopedSimplifier, bump
from repro.engine import monitor
from repro.petri.traps_siphons import (
    maximal_siphon_with_support_outside,
    maximal_trap_with_support_outside,
)
from repro.protocols.protocol import Configuration, PopulationProtocol, Transition
from repro.smtlite.solver import SolverStatus
from repro.verification.results import RefinementStep, StrongConsensusCounterexample

#: Backwards-compatible alias: the builder used to be a private class here.
_ConstraintBuilder = ConstraintBuilder


@dataclass
class StrongConsensusResult:
    """Outcome of the StrongConsensus check."""

    holds: bool
    counterexample: StrongConsensusCounterexample | None = None
    refinements: list[RefinementStep] = field(default_factory=list)
    statistics: dict = field(default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


# ----------------------------------------------------------------------
# Trap/siphon refinement
# ----------------------------------------------------------------------


def find_refinement(
    protocol: PopulationProtocol,
    source: Configuration,
    target: Configuration,
    flow: dict[Transition, int],
    supports=None,
) -> RefinementStep | None:
    """Find a trap/siphon constraint of Definition 12 violated by a model.

    Because traps (siphons) are closed under union it suffices to inspect the
    maximal trap unpopulated in the target (the maximal siphon unpopulated in
    the source).  ``supports`` is the optional precomputed trap/siphon basis
    (:attr:`AnalysisContext.transition_supports`).
    """
    support = [t for t, occurrences in flow.items() if occurrences > 0]
    if not support:
        return None
    empty_target = {state for state in protocol.states if target[state] == 0}
    trap = maximal_trap_with_support_outside(protocol, support, empty_target, supports=supports)
    if trap:
        feeds_trap = any(set(t.post.support()) & trap for t in support)
        if feeds_trap:
            return RefinementStep(kind="trap", states=frozenset(trap), iteration=-1)
    empty_source = {state for state in protocol.states if source[state] == 0}
    siphon = maximal_siphon_with_support_outside(protocol, support, empty_source, supports=supports)
    if siphon:
        drains_siphon = any(set(t.pre.support()) & siphon for t in support)
        if drains_siphon:
            return RefinementStep(kind="siphon", states=frozenset(siphon), iteration=-1)
    return None


# ----------------------------------------------------------------------
# Main entry point
# ----------------------------------------------------------------------


def check_strong_consensus_impl(
    protocol: PopulationProtocol,
    theory: str = "auto",
    strategy: str = "auto",
    max_refinements: int = 10_000,
    max_pattern_pairs: int = 250_000,
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> StrongConsensusResult:
    """Decide StrongConsensus with the trap/siphon refinement loop of Section 6.

    ``strategy`` is one of ``"auto"``, ``"patterns"`` (enumerate terminal
    support patterns, the default for anything non-trivial) or
    ``"monolithic"`` (the paper's single constraint system with the
    ``Terminal`` disjunctions left to the solver).

    ``backend`` names a registered solver backend
    (:func:`repro.constraints.backends.available_backends`); ``context`` is
    an optional shared :class:`AnalysisContext` — a
    :class:`repro.api.Verifier` session passes the same one to every
    property check of a protocol.
    """
    start = time.perf_counter()
    if strategy not in ("auto", "patterns", "monolithic"):
        raise ValueError(f"unknown StrongConsensus strategy {strategy!r}")
    if context is None:
        context = AnalysisContext(protocol)
    chosen = strategy
    patterns: list[TerminalPattern] | None = None
    if strategy in ("auto", "patterns"):
        patterns = context.terminal_patterns
        true_patterns = [p for p in patterns if p.admits_output(protocol, 1)]
        false_patterns = [p for p in patterns if p.admits_output(protocol, 0)]
        num_pairs = len(true_patterns) * len(false_patterns)
        if strategy == "auto":
            chosen = "patterns" if num_pairs <= max_pattern_pairs else "monolithic"
        else:
            chosen = "patterns"

    if chosen == "patterns":
        result = _check_with_patterns(
            protocol, true_patterns, false_patterns, theory, max_refinements, backend, context
        )
    else:
        result = _check_monolithic(protocol, theory, max_refinements, backend, context)
    result.statistics["strategy"] = chosen
    result.statistics["backend"] = resolve_backend_name(backend)
    result.statistics["time"] = time.perf_counter() - start
    if patterns is not None:
        result.statistics["patterns"] = len(patterns)
    return result


def check_strong_consensus(
    protocol: PopulationProtocol,
    theory: str = "auto",
    strategy: str = "auto",
    max_refinements: int = 10_000,
    max_pattern_pairs: int = 250_000,
    backend: str | None = None,
) -> StrongConsensusResult:
    """Deprecated: use :class:`repro.api.Verifier` instead.

    ``Verifier().check(protocol, properties=["strong_consensus"])`` returns
    the same verdict and counterexample in report form; this shim delegates
    to the same implementation, so verdicts are identical.
    """
    import warnings

    warnings.warn(
        "check_strong_consensus() is deprecated; use repro.api.Verifier"
        " (Verifier().check(protocol, properties=['strong_consensus']))",
        DeprecationWarning,
        stacklevel=2,
    )
    return check_strong_consensus_impl(
        protocol,
        theory=theory,
        strategy=strategy,
        max_refinements=max_refinements,
        max_pattern_pairs=max_pattern_pairs,
        backend=backend,
    )


# ----------------------------------------------------------------------
# Strategy 1: terminal-support-pattern enumeration
# ----------------------------------------------------------------------


def _general_consensus_cuts(
    builder: ConstraintBuilder, variables: tuple, step: RefinementStep
) -> tuple:
    """The pair-independent (``target_support=None``) form of a cut, both sides.

    Equivalence with the specialized per-pair form (the one that intersects
    the marked states with ``pattern.allowed``) holds *inside a pair's
    scope*: pattern membership forces every off-pattern state of the
    terminal configuration to zero, and non-negativity is part of the base,
    so the marked sums agree on every model the scope admits.  Siphon cuts
    never used ``target_support`` to begin with.  Asserting the general form
    at base level is therefore sound for every pair (a Definition-12
    refinement is pair-independent) and equivalent under each pair's scope.
    """
    c0, c1, c2, x1, x2 = variables
    return (
        builder.refinement_constraint(step, c0, c1, x1),
        builder.refinement_constraint(step, c0, c2, x2),
    )


def _check_with_patterns(
    protocol: PopulationProtocol,
    true_patterns: list[TerminalPattern],
    false_patterns: list[TerminalPattern],
    theory: str,
    max_refinements: int,
    backend: str | None,
    context: AnalysisContext,
) -> StrongConsensusResult:
    builder = context.builder
    refinements: list[RefinementStep] = []
    statistics = {"iterations": 0, "traps": 0, "siphons": 0, "pattern_pairs": 0, "solver_instances": 1}

    # One persistent solver for all pattern pairs.  The base block (initial
    # configuration, flow non-negativity) and every cut discovered so far
    # live at base level, in general form; a pair's scope carries only its
    # pattern membership and output formulas.  Learned lemmas — blocking
    # clauses and memoized theory checks over the shared atoms — survive
    # across pairs, so later pairs start warm.  Every block passes through
    # the ScopedSimplifier (constant folding, conjunction splitting) on its
    # way to the solver.
    solver = create_solver(backend, theory=theory)
    variables = builder.consensus_variables()
    c0, c1, c2, x1, x2 = variables
    scoped = ScopedSimplifier(builder.consensus_base_system(variables))
    scoped.system.assert_into(solver)

    pattern_memo: dict[tuple[int, TerminalPattern], object] = {}
    output_memo = {1: builder.has_output(c1, 1), 0: builder.has_output(c2, 0)}

    def promote_cuts(new_steps: list[RefinementStep]) -> None:
        """Assert a pair's newly discovered cuts once, at base level.

        ``find_refinement`` can never rediscover a cut whose general form is
        already active (the model would have to violate it), so promotion
        introduces no duplicates across pairs.
        """
        for step in new_steps:
            for cut in _general_consensus_cuts(builder, variables, step):
                for formula in scoped.add_delta(cut):
                    solver.add(formula)
            bump("cuts_promoted_to_base")

    def pair_delta(pattern_true: TerminalPattern, pattern_false: TerminalPattern) -> list:
        true_member = pattern_memo.get((1, pattern_true))
        if true_member is None:
            true_member = builder.pattern(c1, pattern_true)
            pattern_memo[(1, pattern_true)] = true_member
        false_member = pattern_memo.get((0, pattern_false))
        if false_member is None:
            false_member = builder.pattern(c2, pattern_false)
            pattern_memo[(0, pattern_false)] = false_member
        return [true_member, false_member, output_memo[1], output_memo[0]]

    def side_feasible(flow_config, pattern, output) -> bool:
        """Cheap theory-only pre-check of one side of a pattern pair.

        The conjunction (initial population, derived non-negativity, support
        pattern, output presence) is a subset of the pair's full constraint
        system, so infeasibility here soundly rules out every pair using this
        side.  The same false-pattern side recurs across pairs, so the
        underlying theory query is answered from the solver's memo cache
        after the first time.
        """
        result = solver.check_conjunction(
            [
                builder.initial(c0),
                builder.non_negative(flow_config),
                builder.pattern(flow_config, pattern),
                builder.has_output(flow_config, output),
            ]
        )
        return result.status is not SolverStatus.UNSAT

    def finish(result: StrongConsensusResult) -> StrongConsensusResult:
        statistics["solver"] = dict(solver.statistics)
        statistics["simplifier"] = scoped.stats.to_dict()
        return result

    for pattern_true in true_patterns:
        true_side_ok = side_feasible(c1, pattern_true, 1)
        for pattern_false in false_patterns:
            # Cooperative checkpoint: a cancelled service job stops between
            # pattern pairs.
            monitor.check_cancelled()
            statistics["pattern_pairs"] += 1
            if not true_side_ok or not side_feasible(c2, pattern_false, 0):
                statistics["pruned_pairs"] = statistics.get("pruned_pairs", 0) + 1
                continue
            pair_start = len(refinements)
            solver.push()
            try:
                outcome = _solve_pattern_pair(
                    protocol,
                    builder,
                    solver,
                    variables,
                    pattern_true,
                    pattern_false,
                    max_refinements,
                    refinements,
                    statistics,
                    context,
                    scoped,
                    pair_delta(pattern_true, pattern_false),
                )
            finally:
                solver.pop()
            promote_cuts(refinements[pair_start:])
            if outcome is not None:
                return finish(
                    StrongConsensusResult(
                        holds=False,
                        counterexample=outcome,
                        refinements=refinements,
                        statistics=statistics,
                    )
                )
    return finish(StrongConsensusResult(holds=True, refinements=refinements, statistics=statistics))


def _solve_pattern_pair(
    protocol: PopulationProtocol,
    builder: ConstraintBuilder,
    solver,
    variables: tuple,
    pattern_true: TerminalPattern,
    pattern_false: TerminalPattern,
    max_refinements: int,
    refinements: list[RefinementStep],
    statistics: dict,
    context: AnalysisContext,
    scoped: ScopedSimplifier,
    delta_formulas: list,
) -> StrongConsensusCounterexample | None:
    """Run the refinement loop for one pattern pair inside an open scope.

    Earlier pairs' cuts already live at base level in general form, so the
    scope's delta is just ``delta_formulas`` (pattern memberships + output
    presence); cuts found *during*
    this pair are asserted inside the scope (the caller re-promotes them to
    base after pop).
    """
    c0, c1, c2, x1, x2 = variables
    supports = context.transition_supports
    for formula in scoped.add_delta(*delta_formulas):
        solver.add(formula)

    for _ in range(max_refinements):
        statistics["iterations"] += 1
        result = solver.check()
        if result.status is SolverStatus.UNSAT:
            return None
        if result.status is SolverStatus.UNKNOWN:
            raise RuntimeError("the constraint solver could not decide the StrongConsensus query")

        model = result.model
        initial = builder.configuration_from_model(model, c0)
        terminal_true = builder.configuration_from_model(model, c1)
        terminal_false = builder.configuration_from_model(model, c2)
        flow_true = builder.flow_from_model(model, x1)
        flow_false = builder.flow_from_model(model, x2)

        step = find_refinement(protocol, initial, terminal_true, flow_true, supports=supports)
        if step is None:
            step = find_refinement(protocol, initial, terminal_false, flow_false, supports=supports)
        if step is None:
            return StrongConsensusCounterexample(
                initial=initial,
                terminal_true=terminal_true,
                terminal_false=terminal_false,
                flow_true=flow_true,
                flow_false=flow_false,
            )
        step = RefinementStep(kind=step.kind, states=step.states, iteration=statistics["iterations"])
        refinements.append(step)
        statistics["traps" if step.kind == "trap" else "siphons"] += 1
        monitor.emit_refinement_found(step.kind, step.states, step.iteration)
        # Cuts are asserted in the form that is cheapest for the solver.
        # When the trap misses the pair's allowed support the specialized
        # constraint collapses to a two-literal clause (FALSE consequent) —
        # pruning the general form only recovers through repeated theory
        # checks.  Otherwise the general form is used: it is textually
        # identical across pairs and iterations, so the solver's memoized
        # theory checks stay warm, and it matches the cut later promoted to
        # base level.
        for target, flow, pattern in ((c1, x1, pattern_true), (c2, x2, pattern_false)):
            if step.kind == "trap" and not (set(step.states) & set(pattern.allowed)):
                cut = builder.refinement_constraint(
                    step, c0, target, flow, target_support=pattern.allowed
                )
            else:
                cut = builder.refinement_constraint(step, c0, target, flow)
            for formula in scoped.add_delta(cut):
                solver.add(formula)
    raise RuntimeError(
        f"StrongConsensus refinement did not converge within {max_refinements} iterations"
    )


# ----------------------------------------------------------------------
# Strategy 2: the paper's monolithic encoding
# ----------------------------------------------------------------------


def _check_monolithic(
    protocol: PopulationProtocol,
    theory: str,
    max_refinements: int,
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> StrongConsensusResult:
    if context is None:
        context = AnalysisContext(protocol)
    builder = context.builder
    supports = context.transition_supports
    solver = create_solver(backend, theory=theory)

    variables = builder.consensus_variables()
    c0, c1, c2, x1, x2 = variables

    # The flow equations are substituted away: c1 and c2 are expressions over
    # c0 and the flow vectors rather than fresh variables.  Transitions
    # sharing a pre multiset produce duplicate ``Terminal`` clauses; they
    # reach the solver as they come, which repeats a few clauses and
    # changes no verdict.
    system = builder.consensus_base_system(variables)
    system.add(builder.terminal(c1))
    system.add(builder.terminal(c2))
    system.add(builder.has_output(c1, 1))
    system.add(builder.has_output(c2, 0))
    folded = ScopedSimplifier(system)
    folded.system.assert_into(solver)

    refinements: list[RefinementStep] = []
    statistics = {"iterations": 0, "traps": 0, "siphons": 0}

    def finish(result: StrongConsensusResult) -> StrongConsensusResult:
        statistics["solver"] = dict(solver.statistics)
        statistics["simplifier"] = folded.stats.to_dict()
        return result

    for iteration in range(max_refinements):
        monitor.check_cancelled()
        statistics["iterations"] = iteration + 1
        result = solver.check()
        if result.status is SolverStatus.UNSAT:
            return finish(
                StrongConsensusResult(holds=True, refinements=refinements, statistics=statistics)
            )
        if result.status is SolverStatus.UNKNOWN:
            raise RuntimeError("the constraint solver could not decide the StrongConsensus query")

        model = result.model
        initial = builder.configuration_from_model(model, c0)
        terminal_true = builder.configuration_from_model(model, c1)
        terminal_false = builder.configuration_from_model(model, c2)
        flow_true = builder.flow_from_model(model, x1)
        flow_false = builder.flow_from_model(model, x2)

        step = find_refinement(protocol, initial, terminal_true, flow_true, supports=supports)
        if step is None:
            step = find_refinement(protocol, initial, terminal_false, flow_false, supports=supports)
        if step is None:
            counterexample = StrongConsensusCounterexample(
                initial=initial,
                terminal_true=terminal_true,
                terminal_false=terminal_false,
                flow_true=flow_true,
                flow_false=flow_false,
            )
            return finish(
                StrongConsensusResult(
                    holds=False,
                    counterexample=counterexample,
                    refinements=refinements,
                    statistics=statistics,
                )
            )

        step = RefinementStep(kind=step.kind, states=step.states, iteration=iteration)
        refinements.append(step)
        statistics["traps" if step.kind == "trap" else "siphons"] += 1
        monitor.emit_refinement_found(step.kind, step.states, step.iteration)
        solver.add(builder.refinement_constraint(step, c0, c1, x1))
        solver.add(builder.refinement_constraint(step, c0, c2, x2))

    raise RuntimeError(
        f"StrongConsensus refinement did not converge within {max_refinements} iterations"
    )
