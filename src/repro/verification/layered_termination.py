"""LayeredTermination (Definition 4, Section 4.1 and Appendix D.1).

A protocol satisfies *LayeredTermination* if its non-silent transitions can
be arranged into an ordered partition ``(T_1, ..., T_n)`` such that

(a) every execution that only uses transitions of a single layer is silent, and
(b) executing a layer cannot re-enable a transition of an earlier layer
    (formally: ``P[T_i]`` is ``(T_1 ∪ ... ∪ T_{i-1})``-dead).

Checking a *given* partition is polynomial (Propositions 6 and 7); finding
one is the NP part of the membership problem.  This module provides:

* :func:`check_partition` — the polynomial certificate checker;
* :func:`layer_is_silent` — condition (a) via an exact LP (Lemma 21);
* :func:`layer_is_dead_for` — condition (b) via the combinatorial
  characterisation of Lemma 22;
* three partition-search strategies (protocol-supplied hints, a single-layer
  check, an "enabling graph" SCC heuristic, and the exact constraint
  encoding of Appendix D.1 solved with :mod:`repro.smtlite`);
* :func:`check_layered_termination` — the top-level decision procedure.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from repro.constraints.backends import create_solver, resolve_backend_name
from repro.constraints.context import AnalysisContext
from repro.constraints.incremental import ScopedSimplifier
from repro.constraints.ir import ConstraintSystem
from repro.datatypes.multiset import Multiset
from repro.engine import monitor
from repro.protocols.protocol import OrderedPartition, PopulationProtocol, Transition
from repro.protocols.semantics import strongly_connected_components
from repro.smtlite.formula import Implies, disjunction
from repro.smtlite.solver import SolverStatus
from repro.smtlite.terms import LinearExpr
from repro.smtlite.simplex import LinearProgram, LPStatus
from repro.verification.results import LayerCertificate, LayeredTerminationCertificate


@dataclass
class LayeredTerminationResult:
    """Outcome of the LayeredTermination check."""

    holds: bool
    certificate: LayeredTerminationCertificate | None = None
    reason: str = ""
    statistics: dict = field(default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


# ----------------------------------------------------------------------
# Condition (a): every execution of a layer is silent
# ----------------------------------------------------------------------


def layer_is_silent(protocol: PopulationProtocol, layer: Iterable[Transition]) -> bool:
    """Exact check of condition (a) of Definition 4 for one layer.

    By Lemma 21, ``P[T_i]`` has a non-silent execution iff there is a
    non-negative, non-zero rational flow over the non-silent transitions of
    the layer with zero net effect.  We decide this with the exact simplex:
    feasibility of ``{x >= 0, sum_t x_t * delta_t = 0, sum_t x_t = 1}``.
    """
    transitions = [t for t in layer if not t.is_silent]
    if not transitions:
        return True
    program = LinearProgram()
    names = {}
    for index, transition in enumerate(transitions):
        names[transition] = f"x{index}"
        program.add_variable(f"x{index}", lower=0)
    states = set()
    for transition in transitions:
        states.update(transition.states())
    for state in sorted(states, key=repr):
        coefficients = {
            names[t]: t.delta_map[state] for t in transitions if state in t.delta_map
        }
        if coefficients:
            program.add_constraint(coefficients, "==", 0)
    program.add_constraint({names[t]: 1 for t in transitions}, "==", 1)
    solution = program.solve()
    return solution.status is LPStatus.INFEASIBLE


def find_ranking_function(
    protocol: PopulationProtocol, layer: Iterable[Transition]
) -> dict | None:
    """A linear ranking function certifying condition (a), if one exists.

    The certificate assigns a non-negative rational weight to every state
    such that every non-silent transition of the layer strictly decreases
    the configuration weight.  The LP is solved in floating point (HiGHS)
    for speed and the result is rationalised and re-verified exactly; when
    that fails the exact simplex is used directly.  Returns ``None`` when no
    ranking function exists (equivalently, the layer is not silent).
    """
    transitions = [t for t in layer if not t.is_silent]
    if not transitions:
        return {}
    states = sorted({state for t in transitions for state in t.states()}, key=repr)
    ranking = _ranking_via_scipy(transitions, states)
    if ranking is not None and _ranking_is_valid(ranking, transitions):
        return ranking
    ranking = _ranking_via_exact_lp(transitions, states)
    if ranking is not None and _ranking_is_valid(ranking, transitions):
        return ranking
    return None


def _ranking_via_scipy(transitions: Sequence[Transition], states: Sequence) -> dict | None:
    try:
        import numpy as np
        from scipy import optimize
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        return None
    matrix = np.zeros((len(transitions), len(states)))
    column_of = {state: column for column, state in enumerate(states)}
    for row, transition in enumerate(transitions):
        for state, change in transition.delta_map.items():
            matrix[row, column_of[state]] = change
    result = optimize.linprog(
        c=np.ones(len(states)),
        A_ub=matrix,
        b_ub=-np.ones(len(transitions)),
        bounds=[(0, None)] * len(states),
        method="highs",
    )
    if not result.success:
        return None
    ranking = {}
    for column, state in enumerate(states):
        value = Fraction(float(result.x[column])).limit_denominator(10_000)
        ranking[state] = value if value > 0 else Fraction(0)
    return ranking


def _ranking_via_exact_lp(transitions: Sequence[Transition], states: Sequence) -> dict | None:
    program = LinearProgram()
    names = {state: f"y{index}" for index, state in enumerate(states)}
    for name in names.values():
        program.add_variable(name, lower=0)
    for transition in transitions:
        coefficients = {}
        for state in states:
            delta = transition.post[state] - transition.pre[state]
            if delta != 0:
                coefficients[names[state]] = delta
        program.add_constraint(coefficients, "<=", -1)
    solution = program.solve()
    if solution.status is not LPStatus.OPTIMAL:
        return None
    return {state: solution.values.get(names[state], Fraction(0)) for state in states}


def _ranking_is_valid(ranking: dict, transitions: Sequence[Transition]) -> bool:
    for transition in transitions:
        drop = sum(
            Fraction(ranking.get(state, 0)) * (transition.post[state] - transition.pre[state])
            for state in transition.states()
        )
        if drop >= 0:
            return False
    return all(Fraction(value) >= 0 for value in ranking.values())


# ----------------------------------------------------------------------
# Condition (b): a layer cannot wake up earlier layers
# ----------------------------------------------------------------------


def layer_is_dead_for(
    protocol: PopulationProtocol,
    layer: Iterable[Transition],
    earlier: Iterable[Transition],
) -> tuple[bool, tuple[Transition, Transition] | None]:
    """Check condition (b) of Definition 4 via Lemma 22.

    ``P[layer]`` is ``earlier``-dead iff for every ``s`` in the layer and
    every non-silent ``u`` in ``earlier`` there exists a non-silent ``u'`` in
    ``earlier`` enabled at ``pre(s) + (pre(u) ∸ post(s))``.  Returns
    ``(True, None)`` or ``(False, (s, u))`` with a witnessing pair.
    """
    layer = [t for t in layer if not t.is_silent]
    earlier = [t for t in earlier if not t.is_silent]
    if not earlier or not layer:
        return True, None
    earlier_pres = {u.pre for u in earlier}
    for s in layer:
        for u in earlier:
            witness_config = s.pre + u.pre.monus(s.post)
            if not _enables_some(witness_config, earlier_pres):
                return False, (s, u)
    return True, None


def _enables_some(configuration: Multiset, pre_multisets: set[Multiset]) -> bool:
    """Does the configuration enable a transition with pre in ``pre_multisets``?"""
    support = sorted(configuration.support(), key=repr)
    for first, second in combinations_with_replacement(support, 2):
        if first == second and configuration[first] < 2:
            continue
        candidate = Multiset({first: 2}) if first == second else Multiset({first: 1, second: 1})
        if candidate in pre_multisets:
            return True
    return False


# ----------------------------------------------------------------------
# Certificate checking
# ----------------------------------------------------------------------


def check_partition(
    protocol: PopulationProtocol,
    partition: OrderedPartition,
    materialize_rankings: bool = False,
    strategy: str = "explicit",
) -> LayeredTerminationResult:
    """Polynomial check that an ordered partition witnesses LayeredTermination."""
    if not partition.covers(protocol.transitions):
        return LayeredTerminationResult(
            holds=False,
            reason="the partition does not cover exactly the non-silent transitions",
        )
    layers: list[LayerCertificate] = []
    earlier: list[Transition] = []
    for index, layer in enumerate(partition, start=1):
        if not layer_is_silent(protocol, layer):
            return LayeredTerminationResult(
                holds=False,
                reason=f"layer {index} admits a non-silent execution (condition (a) fails)",
            )
        dead, witness = layer_is_dead_for(protocol, layer, earlier)
        if not dead:
            s, u = witness
            return LayeredTerminationResult(
                holds=False,
                reason=(
                    f"layer {index} can re-enable earlier transition {u} via {s} "
                    "(condition (b) fails)"
                ),
            )
        ranking = find_ranking_function(protocol, layer) if materialize_rankings else None
        layers.append(LayerCertificate(layer_index=index, transitions=frozenset(layer), ranking=ranking))
        earlier.extend(layer)
    certificate = LayeredTerminationCertificate(partition=partition, layers=layers, strategy=strategy)
    return LayeredTerminationResult(holds=True, certificate=certificate)


# ----------------------------------------------------------------------
# Partition search strategies
# ----------------------------------------------------------------------


def single_layer_partition(protocol: PopulationProtocol) -> OrderedPartition | None:
    """The trivial one-layer partition, if it satisfies condition (a)."""
    if not protocol.transitions:
        return OrderedPartition(())
    if layer_is_silent(protocol, protocol.transitions):
        return OrderedPartition.of(protocol.transitions)
    return None


def enabling_graph(protocol: PopulationProtocol) -> dict[Transition, frozenset[Transition]]:
    """The pairwise "may enable" relation between non-silent transitions.

    There is an edge ``t -> u`` iff firing ``t`` in some configuration where
    ``u`` is disabled can enable ``u`` (Lemma 22 specialised to ``U = {u}``):
    ``pre(u) ≰ pre(t) + (pre(u) ∸ post(t))``.
    """
    transitions = protocol.transitions
    edges: dict[Transition, set[Transition]] = {t: set() for t in transitions}
    for t in transitions:
        for u in transitions:
            witness = t.pre + u.pre.monus(t.post)
            if not (u.pre <= witness):
                edges[t].add(u)
    return {t: frozenset(successors) for t, successors in edges.items()}


def scc_heuristic_partition(
    protocol: PopulationProtocol, context: AnalysisContext | None = None
) -> OrderedPartition | None:
    """Layering from the condensation of the enabling graph.

    Transitions are grouped by strongly connected components of the
    "may enable" relation and ordered topologically, so that no transition
    can pairwise-enable a transition of an earlier layer; condition (b) then
    holds a fortiori.  The candidate is returned only if every layer also
    satisfies condition (a); otherwise ``None``.
    """
    if not protocol.transitions:
        return OrderedPartition(())
    edges = context.enabling_graph if context is not None else enabling_graph(protocol)
    components = strongly_connected_components(edges)
    component_of = {}
    for index, component in enumerate(components):
        for transition in component:
            component_of[transition] = index
    # Build the condensation DAG and topologically order it (Kahn).
    dag: dict[int, set[int]] = {index: set() for index in range(len(components))}
    indegree = {index: 0 for index in range(len(components))}
    for t, successors in edges.items():
        for u in successors:
            source, target = component_of[t], component_of[u]
            if source != target and target not in dag[source]:
                dag[source].add(target)
                indegree[target] += 1
    queue = [index for index, degree in indegree.items() if degree == 0]
    order: list[int] = []
    while queue:
        queue.sort()
        node = queue.pop(0)
        order.append(node)
        for successor in dag[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                queue.append(successor)
    if len(order) != len(components):  # pragma: no cover - condensation is acyclic
        return None
    layers = [frozenset(components[index]) for index in order]
    for layer in layers:
        if not layer_is_silent(protocol, layer):
            return None
    return OrderedPartition(tuple(layers))


def smt_partition_search(
    protocol: PopulationProtocol,
    max_layers: int | None = None,
    theory: str = "auto",
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> OrderedPartition | None:
    """Exact partition search via the constraint encoding of Appendix D.1.

    For a growing number of layers ``k`` the encoding uses an integer layer
    variable ``b_t`` per transition and a ranking function ``y_i`` per layer:

    * ``b_t = i`` implies that ``y_i`` strictly decreases on ``t``
      (condition (a), via Farkas' lemma);
    * ``b_u < b_t`` implies that some transition enabled at the Lemma 22
      witness configuration lies in a layer strictly below ``b_t``
      (condition (b)).

    The second family is the exact version of the paper's constraints (the
    paper requires the enabled transition to be in the *same* layer as
    ``u``, which is sufficient but slightly stronger).

    The encoding is routed through the constraint IR and a
    :class:`ScopedSimplifier`: the base (folded once — folding kills the
    ``|T|`` vacuous ``t == u`` implications of condition (b), whose
    antecedent ``b_t < b_t`` is constantly false) is asserted once, and each
    round ``k`` is a delta of ``b_t <= k`` atoms pushed and popped on the
    solver.  The returned partition is re-checked by
    :func:`check_partition`.
    """
    transitions = list(protocol.transitions)
    if not transitions:
        return OrderedPartition(())
    if max_layers is None:
        # All protocols from the literature handled here need at most two
        # layers; the exhaustive bound |T| is sound but the search grows
        # exponentially with the bound, so the default is deliberately small
        # and can be raised by the caller.
        max_layers = min(len(transitions), 2)
    witnesses = (
        context.lemma22_witnesses if context is not None else _lemma22_witness_sets(transitions)
    )

    # One persistent solver for the whole 1..max_layers sweep: the encoding
    # is built once for the largest bound, and each round k is checked under
    # the scoped delta ``b_t <= k``.  Lemmas learned while refuting small
    # bounds carry over to the larger ones.  (The encoding is deeply
    # disjunctive, so the direct-ILP backend's case budget overflows and it
    # answers through its DPLL(T) escape hatch — same verdicts, asserted by
    # the parity tests.)
    solver = create_solver(backend, theory=theory)
    system = ConstraintSystem("layered-termination")
    layer_var = {
        transition: system.declare(f"b{index}", lower=1, upper=max_layers, group="layer")
        for index, transition in enumerate(transitions)
    }
    states = sorted(protocol.states, key=repr)
    ranking_vars = {
        (layer, state): system.declare(f"y_{layer}_{position}", lower=0, group="ranking")
        for layer in range(1, max_layers + 1)
        for position, state in enumerate(states)
    }

    # Condition (a): each layer admits a ranking function.  Constraints for
    # layers above the current bound are vacuous under ``b_t <= k``.
    for layer in range(1, max_layers + 1):
        for transition in transitions:
            drop = LinearExpr.sum_of(
                change * ranking_vars[(layer, state)]
                for state, change in transition.delta_map.items()
            )
            system.add(Implies(layer_var[transition].eq(layer), drop <= -1))

    # Condition (b): a later transition cannot wake an earlier layer.
    for t in transitions:
        for u in transitions:
            enabled_below = disjunction(
                [layer_var[w] < layer_var[t] for w in witnesses[(t, u)]]
            )
            system.add(Implies(layer_var[u] < layer_var[t], enabled_below))

    scoped = ScopedSimplifier(system)
    scoped.system.assert_into(solver)

    for num_layers in range(1, max_layers + 1):
        round_atoms = [layer_var[t] <= num_layers for t in transitions]
        solver.push()
        try:
            for formula in scoped.add_delta(*round_atoms):
                solver.add(formula)
            result = solver.check()
        finally:
            solver.pop()
        if result.status is not SolverStatus.SAT:
            continue
        assignment = {t: result.model.value(layer_var[t]) for t in transitions}
        layers = []
        for layer in range(1, num_layers + 1):
            members = frozenset(t for t, value in assignment.items() if value == layer)
            if members:
                layers.append(members)
        return OrderedPartition(tuple(layers))
    return None


def _lemma22_witness_sets(
    transitions: Sequence[Transition],
) -> dict[tuple[Transition, Transition], list[Transition]]:
    """Precompute ``U'(t, u)`` of Appendix D.1 for every pair of transitions.

    Instead of scanning all transitions per pair (cubic in ``|T|``), the
    transitions are indexed by their (size-two) pre multiset; for each
    witness configuration the at most ``support^2`` candidate pres drawn from
    its support are looked up directly.
    """
    by_pre: dict[Multiset, list[Transition]] = {}
    for w in transitions:
        by_pre.setdefault(w.pre, []).append(w)
    order = {t: position for position, t in enumerate(transitions)}

    result: dict[tuple[Transition, Transition], list[Transition]] = {}
    for t in transitions:
        for u in transitions:
            witness_config = t.pre + u.pre.monus(t.post)
            enabled: list[Transition] = []
            support = sorted(witness_config.support(), key=repr)
            for position, first in enumerate(support):
                for second in support[position:]:
                    if first == second:
                        if witness_config[first] < 2:
                            continue
                        candidate = Multiset({first: 2})
                    else:
                        candidate = Multiset({first: 1, second: 1})
                    enabled.extend(by_pre.get(candidate, ()))
            enabled.sort(key=order.__getitem__)
            result[(t, u)] = enabled
    return result


# ----------------------------------------------------------------------
# Top-level decision procedure
# ----------------------------------------------------------------------


def check_layered_termination_impl(
    protocol: PopulationProtocol,
    strategy: str = "auto",
    max_layers: int | None = None,
    materialize_rankings: bool = False,
    theory: str = "auto",
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> LayeredTerminationResult:
    """Decide LayeredTermination (implementation; see the deprecated shim below).

    ``strategy`` is one of:

    * ``"auto"`` — try, in order: the protocol's partition hint, the trivial
      single layer, the SCC heuristic, and finally the exact SMT search;
    * ``"hint"`` — only check the protocol-supplied partition;
    * ``"single"`` — only try the one-layer partition;
    * ``"scc"`` — only try the enabling-graph heuristic;
    * ``"smt"`` — only run the exact search (Appendix D.1 encoding).

    Note that ``"auto"`` with the default ``max_layers`` bound is sound but
    not complete: a negative answer means that no partition with at most
    ``max_layers`` layers was found, not that none exists.
    """
    if context is None:
        context = AnalysisContext(protocol)
    start = time.perf_counter()
    statistics: dict = {"strategy": None, "backend": resolve_backend_name(backend)}

    def finish(result: LayeredTerminationResult, used_strategy: str) -> LayeredTerminationResult:
        statistics["strategy"] = used_strategy
        statistics["time"] = time.perf_counter() - start
        result.statistics = {**statistics, **result.statistics}
        return result

    attempts: list[tuple[str, OrderedPartition | None]] = []
    if strategy in ("auto", "hint") and protocol.partition_hint is not None:
        attempts.append(("hint", protocol.partition_hint))
    if strategy in ("auto", "single"):
        attempts.append(("single", single_layer_partition(protocol)))
    if strategy in ("auto", "scc"):
        attempts.append(("scc", scc_heuristic_partition(protocol, context=context)))

    for used_strategy, partition in attempts:
        if partition is None:
            continue
        # Cooperative checkpoint between strategy attempts (service jobs).
        monitor.check_cancelled()
        result = check_partition(
            protocol, partition, materialize_rankings=materialize_rankings, strategy=used_strategy
        )
        if result.holds:
            return finish(result, used_strategy)
        if strategy == "hint":
            return finish(result, used_strategy)

    if strategy in ("auto", "smt"):
        partition = smt_partition_search(
            protocol, max_layers=max_layers, theory=theory, backend=backend, context=context
        )
        if partition is not None:
            result = check_partition(
                protocol, partition, materialize_rankings=materialize_rankings, strategy="smt"
            )
            if result.holds:
                return finish(result, "smt")
        return finish(
            LayeredTerminationResult(
                holds=False,
                reason="no ordered partition found within the layer bound",
            ),
            "smt",
        )

    return finish(
        LayeredTerminationResult(holds=False, reason=f"strategy {strategy!r} found no valid partition"),
        strategy,
    )


def check_layered_termination(
    protocol: PopulationProtocol,
    strategy: str = "auto",
    max_layers: int | None = None,
    materialize_rankings: bool = False,
    theory: str = "auto",
    backend: str | None = None,
) -> LayeredTerminationResult:
    """Deprecated: use :class:`repro.api.Verifier` instead.

    ``Verifier().check(protocol, properties=["layered_termination"])``
    returns the same verdict and certificate in report form; this shim
    delegates to the same implementation, so verdicts are identical.
    """
    import warnings

    warnings.warn(
        "check_layered_termination() is deprecated; use repro.api.Verifier"
        " (Verifier().check(protocol, properties=['layered_termination']))",
        DeprecationWarning,
        stacklevel=2,
    )
    return check_layered_termination_impl(
        protocol,
        strategy=strategy,
        max_layers=max_layers,
        materialize_rankings=materialize_rankings,
        theory=theory,
        backend=backend,
    )
