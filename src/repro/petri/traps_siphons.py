"""Traps and siphons — the one module for nets *and* population protocols.

The population-protocol notions of Definition 10 are the classical
Petri-net ones specialised to a subset ``U`` of transitions:

* a set of places/states ``P`` is a *(U-)trap* if every transition (of
  ``U``) that takes a token out of ``P`` also puts one into ``P``
  (``P• ∩ U ⊆ •P``);
* a set ``P`` is a *(U-)siphon* if every transition (of ``U``) that puts a
  token into ``P`` also takes one out of ``P`` (``•P ∩ U ⊆ P•``).

Traps, once marked, stay marked; siphons, once empty, stay empty
(Observation 11).  Both families are closed under union, so the *maximal*
trap (siphon) inside a candidate set is unique and computable by a greedy
fixed point — which is what the CEGAR refinement loop of Section 6 uses.

Nets and protocols share one implementation here: every function operates
on "transition-like" objects (anything with ``pre``/``post`` multisets),
which both :class:`repro.petri.net.PetriTransition` and
:class:`repro.protocols.protocol.Transition` are.

The fixed points accept an optional precomputed ``supports`` mapping
(transition -> ``(pre-support, post-support)`` frozensets) — the
*trap/siphon basis* memoized once per protocol by
:class:`repro.constraints.context.AnalysisContext` — so the per-iteration
support recomputation disappears from the refinement hot loop.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.petri.net import PetriNet

Supports = Mapping[object, tuple[frozenset, frozenset]]


def transition_supports(transitions: Iterable) -> dict:
    """The (pre-support, post-support) pair of every transition-like object."""
    return {t: (frozenset(t.pre.support()), frozenset(t.post.support())) for t in transitions}


def _support_pair(transition, supports: Supports | None) -> tuple[frozenset, frozenset]:
    if supports is not None:
        pair = supports.get(transition)
        if pair is not None:
            return pair
    return frozenset(transition.pre.support()), frozenset(transition.post.support())


# ----------------------------------------------------------------------
# The generic core (shared by the net-level and protocol-level surfaces)
# ----------------------------------------------------------------------


def is_trap(system, places: Iterable, transitions: Iterable | None = None) -> bool:
    """Is ``places`` a (U-)trap?  ``system`` supplies the default transitions.

    Called as ``is_trap(net, places)`` this is the classical net notion
    (``P• ⊆ •P``); called as ``is_trap(protocol, states, transitions)`` it
    is the U-trap of Definition 10 for ``U = transitions``.
    """
    place_set = set(places)
    pool = system.transitions if transitions is None else transitions
    for transition in pool:
        takes_out = bool(set(transition.pre.support()) & place_set)
        puts_in = bool(set(transition.post.support()) & place_set)
        if takes_out and not puts_in:
            return False
    return True


def is_siphon(system, places: Iterable, transitions: Iterable | None = None) -> bool:
    """Is ``places`` a (U-)siphon?  (``•P ⊆ P•``, dually to :func:`is_trap`.)"""
    place_set = set(places)
    pool = system.transitions if transitions is None else transitions
    for transition in pool:
        puts_in = bool(set(transition.post.support()) & place_set)
        takes_out = bool(set(transition.pre.support()) & place_set)
        if puts_in and not takes_out:
            return False
    return True


def maximal_trap_inside(
    system, candidate_places: Iterable, transitions: Iterable | None = None, supports: Supports | None = None
) -> frozenset:
    """The unique maximal (U-)trap contained in ``candidate_places``.

    Greedy fixed point: repeatedly remove a place if some transition takes
    a token from it but puts none into the current set.  Runs in time
    polynomial in ``|U| * |P|``.
    """
    pool = list(system.transitions if transitions is None else transitions)
    current: set = set(candidate_places)
    changed = True
    while changed and current:
        changed = False
        for transition in pool:
            pre_support, post_support = _support_pair(transition, supports)
            if not post_support & current:
                offending = pre_support & current
                if offending:
                    current -= offending
                    changed = True
    return frozenset(current)


def maximal_siphon_inside(
    system, candidate_places: Iterable, transitions: Iterable | None = None, supports: Supports | None = None
) -> frozenset:
    """The unique maximal (U-)siphon contained in ``candidate_places``."""
    pool = list(system.transitions if transitions is None else transitions)
    current: set = set(candidate_places)
    changed = True
    while changed and current:
        changed = False
        for transition in pool:
            pre_support, post_support = _support_pair(transition, supports)
            if not pre_support & current:
                offending = post_support & current
                if offending:
                    current -= offending
                    changed = True
    return frozenset(current)


# ----------------------------------------------------------------------
# Net-level surface (names kept from the original Petri module)
# ----------------------------------------------------------------------


def preset(net: PetriNet, places: Iterable) -> frozenset[str]:
    """``•P``: names of transitions producing into some place of ``P``."""
    place_set = set(places)
    return frozenset(t.name for t in net.transitions if set(t.post.support()) & place_set)


def postset(net: PetriNet, places: Iterable) -> frozenset[str]:
    """``P•``: names of transitions consuming from some place of ``P``."""
    place_set = set(places)
    return frozenset(t.name for t in net.transitions if set(t.pre.support()) & place_set)


def siphon_trap_property_violations(net: PetriNet, initial_marking) -> list[frozenset]:
    """Siphons that are unmarked initially (candidates for permanent starvation).

    Classical deadlock analysis: a siphon that is (or becomes) empty stays
    empty, so an initially unmarked siphon pinpoints places that can never be
    marked.  Returns the maximal initially-unmarked siphon (as a singleton
    list, or an empty list if there is none).
    """
    unmarked = {place for place in net.places if initial_marking[place] == 0}
    siphon = maximal_siphon_inside(net, unmarked)
    return [siphon] if siphon else []


# ----------------------------------------------------------------------
# Protocol-level surface (names kept from the verification module)
# ----------------------------------------------------------------------


def pre_transitions(protocol, states: Iterable, transitions: Iterable | None = None) -> frozenset:
    """``•P``: transitions whose *post* multiset intersects ``states``."""
    state_set = set(states)
    pool = protocol.transitions if transitions is None else transitions
    return frozenset(t for t in pool if set(t.post.support()) & state_set)


def post_transitions(protocol, states: Iterable, transitions: Iterable | None = None) -> frozenset:
    """``P•``: transitions whose *pre* multiset intersects ``states``."""
    state_set = set(states)
    pool = protocol.transitions if transitions is None else transitions
    return frozenset(t for t in pool if set(t.pre.support()) & state_set)


def maximal_trap_with_support_outside(
    protocol,
    transitions: Iterable,
    candidate_states: Iterable,
    supports: Supports | None = None,
) -> frozenset:
    """The unique maximal U-trap contained in ``candidate_states`` (Definition 10)."""
    return maximal_trap_inside(protocol, candidate_states, transitions=transitions, supports=supports)


def maximal_siphon_with_support_outside(
    protocol,
    transitions: Iterable,
    candidate_states: Iterable,
    supports: Supports | None = None,
) -> frozenset:
    """The unique maximal U-siphon contained in ``candidate_states``."""
    return maximal_siphon_inside(protocol, candidate_states, transitions=transitions, supports=supports)


def all_minimal_siphons(
    protocol, transitions: Iterable | None = None, limit: int = 1000
) -> list[frozenset]:
    """Enumerate minimal non-empty siphons (small protocols only).

    This is exponential in the worst case and intended for tests, examples
    and diagnostics; the verification engine itself only ever needs maximal
    traps/siphons inside a candidate set.
    """
    pool = list(protocol.transitions if transitions is None else transitions)
    states = sorted(protocol.states, key=repr)
    siphons: list[frozenset] = []

    def is_minimal(candidate: frozenset) -> bool:
        return not any(existing < candidate for existing in siphons)

    from itertools import combinations

    for size in range(1, len(states) + 1):
        if len(siphons) >= limit:
            break
        for subset in combinations(states, size):
            candidate = frozenset(subset)
            if not is_minimal(candidate):
                continue
            if is_siphon(protocol, candidate, pool):
                siphons.append(candidate)
                if len(siphons) >= limit:
                    break
    return [s for s in siphons if not any(other < s for other in siphons)]
