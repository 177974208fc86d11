"""Reusable IR builders for the paper's recurring constraint blocks.

The verification procedures of Sections 4 and 6 keep re-assembling the same
few constraint shapes (Appendix D.2): flow equations, initial/terminal
population constraints, output-presence constraints, trap and siphon cuts,
and terminal-support-pattern memberships.  This module owns all of them:

* :class:`TerminalPattern` / :func:`terminal_support_patterns` — the
  combinatorial factoring of ``Terminal(c)`` into maximal independent sets
  of the interaction conflict graph;
* :class:`ConstraintBuilder` — one shared naming scheme and the formula
  templates, plus system-level builders that package whole blocks as
  :class:`~repro.constraints.ir.ConstraintSystem` values (with named
  variable groups) ready for constant folding and any backend.

Everything here is pure construction: no solver is touched, which is what
lets the same blocks serve the smtlite DPLL(T) backend, the direct-ILP
backend and every other registered backend.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import networkx as nx

from repro.constraints.ir import ConstraintSystem
from repro.datatypes.multiset import Multiset
from repro.protocols.protocol import Configuration, PopulationProtocol, Transition
from repro.smtlite.formula import FALSE, Formula, Implies, conjunction, disjunction
from repro.smtlite.terms import LinearExpr


# ----------------------------------------------------------------------
# Terminal support patterns
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TerminalPattern:
    """A candidate shape for a terminal configuration.

    ``allowed`` is a maximal independent set of the interaction conflict
    graph: only these states may be populated.  ``capped`` are the allowed
    states that react with themselves, so they can hold at most one agent.
    Every terminal configuration matches at least one pattern, and every
    configuration matching a pattern is terminal.
    """

    allowed: frozenset
    capped: frozenset

    def admits_output(self, protocol: PopulationProtocol, output: int) -> bool:
        return any(protocol.output_map[state] == output for state in self.allowed)


def terminal_support_patterns(protocol: PopulationProtocol) -> list[TerminalPattern]:
    """Enumerate the terminal support patterns of a protocol.

    The *conflict graph* has the protocol's states as vertices and an edge
    between two distinct states that appear together in the pre of some
    non-silent transition.  A configuration is terminal iff its support is an
    independent set of this graph and every state with a non-silent
    self-interaction holds at most one agent.  Patterns are the maximal
    independent sets (computed via maximal cliques of the complement graph).
    """
    graph = nx.Graph()
    graph.add_nodes_from(protocol.states)
    self_forbidden: set = set()
    for transition in protocol.transitions:
        support = sorted(transition.pre.support(), key=repr)
        if len(support) == 1:
            self_forbidden.add(support[0])
        else:
            graph.add_edge(support[0], support[1])
    complement = nx.complement(graph)
    patterns = []
    for clique in nx.find_cliques(complement):
        allowed = frozenset(clique)
        patterns.append(TerminalPattern(allowed=allowed, capped=frozenset(allowed & self_forbidden)))
    patterns.sort(key=lambda pattern: sorted(map(repr, pattern.allowed)))
    return patterns


# ----------------------------------------------------------------------
# The constraint builder (Appendix D.2)
# ----------------------------------------------------------------------


def state_delta_rows(protocol: PopulationProtocol) -> dict:
    """The flow-equation basis: ``state -> ((transition, delta), ...)``.

    One row per state, in the builder's deterministic orders (states sorted
    by ``repr``, transitions in protocol order) — exactly the sums the state
    equation ``C' = C + Δ·x`` iterates over.  The single source of this
    derivation: both :class:`ConstraintBuilder` and
    :attr:`repro.constraints.context.AnalysisContext.state_deltas` call
    here, so the row order can never drift between the two.
    """
    transitions = list(protocol.transitions)
    return {
        state: tuple(
            (transition, transition.delta_map[state])
            for transition in transitions
            if state in transition.delta_map
        )
        for state in sorted(protocol.states, key=repr)
    }


class ConstraintBuilder:
    """Shared naming scheme and constraint templates from Appendix D.2.

    ``state_deltas`` is the optional precomputed flow-equation basis
    (:attr:`repro.constraints.context.AnalysisContext.state_deltas`):
    ``state -> ((transition, delta), ...)`` in enumeration order.  When the
    builder comes from a shared analysis context the basis is derived once
    per protocol; a standalone builder
    derives it lazily on first use.
    """

    def __init__(self, protocol: PopulationProtocol, state_deltas: dict | None = None):
        self.protocol = protocol
        self.states = sorted(protocol.states, key=repr)
        self.state_index = {state: index for index, state in enumerate(self.states)}
        self.transitions = list(protocol.transitions)
        self.transition_index = {t: index for index, t in enumerate(self.transitions)}
        self.initial_states = protocol.initial_states()
        self._state_deltas = state_deltas

    @property
    def state_deltas(self) -> dict:
        """The per-state flow-equation rows (see :func:`state_delta_rows`)."""
        if self._state_deltas is None:
            self._state_deltas = state_delta_rows(self.protocol)
        return self._state_deltas

    # -- variable families -------------------------------------------------

    def config_vars(self, prefix: str) -> dict:
        return {state: LinearExpr.variable(f"{prefix}_{self.state_index[state]}") for state in self.states}

    def flow_vars(self, prefix: str) -> dict[Transition, LinearExpr]:
        return {
            transition: LinearExpr.variable(f"{prefix}_{self.transition_index[transition]}")
            for transition in self.transitions
        }

    def derived_config(self, source: dict, flow: dict[Transition, LinearExpr]) -> dict:
        """The configuration reached from ``source`` via ``flow``, as expressions.

        Substituting the flow equations away (instead of introducing fresh
        variables per target state plus equality constraints) keeps the
        constraint systems handed to the theory solver small.
        """
        rows = self.state_deltas
        derived = {}
        for state in self.states:
            change = LinearExpr.sum_of(delta * flow[transition] for transition, delta in rows[state])
            derived[state] = source[state] + change
        return derived

    def non_negative(self, config: dict) -> Formula:
        """Every (derived) state count is non-negative."""
        return conjunction([config[state] >= 0 for state in self.states])

    # -- constraint templates ----------------------------------------------

    def initial(self, config: dict) -> Formula:
        """``Initial(c)``: population of size >= 2 located on initial states only."""
        initial_states = self.initial_states
        on_initial = LinearExpr.sum_of(config[state] for state in self.states if state in initial_states)
        off_initial = [config[state] <= 0 for state in self.states if state not in initial_states]
        return conjunction([on_initial >= 2] + off_initial)

    def terminal(self, config: dict) -> Formula:
        """``Terminal(c)``: every non-silent transition is disabled (monolithic form)."""
        clauses = []
        for transition in self.transitions:
            options = [
                config[state] <= transition.pre[state] - 1
                for state in transition.pre.support()
            ]
            clauses.append(disjunction(options))
        return conjunction(clauses)

    def pattern(self, config: dict, pattern: TerminalPattern) -> Formula:
        """Terminal-ness restricted to one support pattern (conjunctive form)."""
        constraints = []
        for state in self.states:
            if state not in pattern.allowed:
                constraints.append(config[state] <= 0)
            elif state in pattern.capped:
                constraints.append(config[state] <= 1)
        return conjunction(constraints)

    def has_output(self, config: dict, output: int) -> Formula:
        """``True(c)`` / ``False(c)``: some populated state has the given output."""
        states = [state for state in self.states if self.protocol.output_map[state] == output]
        if not states:
            return FALSE
        return LinearExpr.sum_of(config[state] for state in states) >= 1

    def flow_equation(self, source: dict, target: dict, flow: dict[Transition, LinearExpr]) -> Formula:
        """``FlowEquation(c, c', x)`` for every state (monolithic form)."""
        rows = self.state_deltas
        constraints = []
        for state in self.states:
            change = LinearExpr.sum_of(delta * flow[transition] for transition, delta in rows[state])
            constraints.append(target[state].eq(source[state] + change))
        return conjunction(constraints)

    def trap_constraint(
        self,
        states: Iterable,
        source: dict,
        target: dict,
        flow: dict[Transition, LinearExpr],
        target_support: Iterable | None = None,
    ) -> Formula:
        """``UTrap(R, c, c', x)``: if the flow uses •R and R is a trap of its support, R stays marked.

        ``target_support`` may restrict the states that can possibly be
        populated in the target configuration (e.g. the allowed set of a
        terminal support pattern); states outside it contribute nothing to
        the "stays marked" sum, which often turns the consequent into FALSE
        and the whole constraint into a two-literal clause.
        """
        states = set(states)
        into = [t for t in self.transitions if set(t.post.support()) & states]
        out_only = [
            t
            for t in self.transitions
            if set(t.pre.support()) & states and not (set(t.post.support()) & states)
        ]
        marked_states = states if target_support is None else states & set(target_support)
        uses_into = LinearExpr.sum_of(flow[t] for t in into) >= 1 if into else None
        no_escape = LinearExpr.sum_of(flow[t] for t in out_only) <= 0 if out_only else None
        if marked_states:
            marked: Formula = LinearExpr.sum_of(target[state] for state in marked_states) >= 1
        else:
            marked = FALSE
        if uses_into is None:
            return marked if no_escape is None else Implies(no_escape, marked)
        antecedent = uses_into if no_escape is None else conjunction([uses_into, no_escape])
        return Implies(antecedent, marked)

    def siphon_constraint(
        self,
        states: Iterable,
        source: dict,
        target: dict,
        flow: dict[Transition, LinearExpr],
        source_support: Iterable | None = None,
    ) -> Formula:
        """``USiphon(S, c, c', x)``: if the flow uses S• and S is a siphon of its support, S was marked.

        ``source_support`` restricts the states that can be populated in the
        source configuration; by default it is the set of initial states
        (``Initial(c0)`` forces every other state of ``c0`` to zero).
        """
        states = set(states)
        out = [t for t in self.transitions if set(t.pre.support()) & states]
        in_only = [
            t
            for t in self.transitions
            if set(t.post.support()) & states and not (set(t.pre.support()) & states)
        ]
        if source_support is None:
            source_support = self.initial_states
        marked_states = states & set(source_support)
        uses_out = LinearExpr.sum_of(flow[t] for t in out) >= 1 if out else None
        no_refill = LinearExpr.sum_of(flow[t] for t in in_only) <= 0 if in_only else None
        if marked_states:
            marked: Formula = LinearExpr.sum_of(source[state] for state in marked_states) >= 1
        else:
            marked = FALSE
        if uses_out is None:
            return marked if no_refill is None else Implies(no_refill, marked)
        antecedent = uses_out if no_refill is None else conjunction([uses_out, no_refill])
        return Implies(antecedent, marked)

    def refinement_constraint(
        self,
        step,
        source: dict,
        target: dict,
        flow: dict[Transition, LinearExpr],
        target_support: Iterable | None = None,
    ) -> Formula:
        """The constraint of a trap/siphon refinement step (duck-typed on ``kind``/``states``)."""
        if step.kind == "trap":
            return self.trap_constraint(step.states, source, target, flow, target_support=target_support)
        return self.siphon_constraint(step.states, source, target, flow)

    # -- system-level blocks ----------------------------------------------

    def consensus_variables(self) -> tuple:
        """The shared variable families ``(c0, c1, c2, x1, x2)`` of Appendix D.2."""
        c0 = self.config_vars("c0")
        x1 = self.flow_vars("x1")
        x2 = self.flow_vars("x2")
        c1 = self.derived_config(c0, x1)
        c2 = self.derived_config(c0, x2)
        return c0, c1, c2, x1, x2

    def consensus_base_system(self, variables: tuple) -> ConstraintSystem:
        """The pair-independent StrongConsensus block (initial population,
        non-negativity of both derived configurations), with named groups."""
        c0, c1, c2, x1, x2 = variables
        system = ConstraintSystem("consensus-base")
        system.declare_group("config:c0", (f"c0_{index}" for index in range(len(self.states))))
        system.declare_group("flow:x1", (f"x1_{index}" for index in range(len(self.transitions))))
        system.declare_group("flow:x2", (f"x2_{index}" for index in range(len(self.transitions))))
        system.add(self.initial(c0))
        system.add(self.non_negative(c1))
        system.add(self.non_negative(c2))
        return system

    def consensus_pair_system(
        self,
        variables: tuple,
        pattern_true: TerminalPattern,
        pattern_false: TerminalPattern,
        refinements: Iterable = (),
    ) -> ConstraintSystem:
        """The per-pattern-pair block: memberships, outputs, seeded refinements."""
        c0, c1, c2, x1, x2 = variables
        system = ConstraintSystem("pattern-pair")
        system.add(self.pattern(c1, pattern_true))
        system.add(self.pattern(c2, pattern_false))
        system.add(self.has_output(c1, 1))
        system.add(self.has_output(c2, 0))
        for step in refinements:
            system.add(self.refinement_constraint(step, c0, c1, x1, target_support=pattern_true.allowed))
            system.add(self.refinement_constraint(step, c0, c2, x2, target_support=pattern_false.allowed))
        return system

    def correctness_variables(self) -> tuple:
        """``(input_vars, c0, c1, x1)``: the correctness check's families.

        The initial configuration is the image of the input under I,
        expressed directly over the input variables; the flow equations are
        likewise substituted away (c1 is an expression over the input and
        the flow).
        """
        protocol = self.protocol
        input_vars = {
            symbol: LinearExpr.variable(f"inp_{index}")
            for index, symbol in enumerate(protocol.input_alphabet)
        }
        x1 = self.flow_vars("x1")
        c0 = {}
        for state in self.states:
            symbols = [symbol for symbol in protocol.input_alphabet if protocol.input_map[symbol] == state]
            if symbols:
                c0[state] = LinearExpr.sum_of(input_vars[symbol] for symbol in symbols)
            else:
                c0[state] = LinearExpr.constant_expr(0)
        c1 = self.derived_config(c0, x1)
        return input_vars, c0, c1, x1

    def correctness_base_system(self, variables: tuple) -> ConstraintSystem:
        """The pattern-independent correctness block (population size, non-negativity)."""
        input_vars, _c0, c1, _x1 = variables
        system = ConstraintSystem("correctness-base")
        system.declare_group("input", (f"inp_{index}" for index in range(len(input_vars))))
        system.declare_group("flow:x1", (f"x1_{index}" for index in range(len(self.transitions))))
        system.add(LinearExpr.sum_of(input_vars.values()) >= 2)
        system.add(self.non_negative(c1))
        return system

    def correctness_pattern_system(
        self,
        variables: tuple,
        expected_output: int,
        pattern: TerminalPattern,
        refinements: Iterable = (),
    ) -> ConstraintSystem:
        """The per-(direction, pattern) correctness block.

        The predicate itself is compiled separately (through
        :func:`repro.presburger.ir.predicate_system`, which declares the
        fresh existential variables) and merged by the caller.
        """
        _input_vars, c0, c1, x1 = variables
        system = ConstraintSystem("correctness-case")
        system.add(self.pattern(c1, pattern))
        # Wrong output: some populated state disagrees with the expected value.
        system.add(self.has_output(c1, 1 - expected_output))
        for step in refinements:
            system.add(self.refinement_constraint(step, c0, c1, x1, target_support=pattern.allowed))
        return system

    # -- model extraction ----------------------------------------------------

    def configuration_from_model(self, model, config: dict) -> Configuration:
        return Multiset(
            {state: model.value(config[state]) for state in self.states if model.value(config[state]) > 0}
        )

    def flow_from_model(self, model, flow: dict[Transition, LinearExpr]) -> dict[Transition, int]:
        return {
            transition: model.value(expression)
            for transition, expression in flow.items()
            if model.value(expression) > 0
        }
