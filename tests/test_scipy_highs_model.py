"""The scipy backend's persistent HiGHS model: probes, proofs and counters.

One :class:`_HighsModel` serves a whole theory call — the feasibility solve
and every core-extraction probe — by switching rows on and off through
their bounds.  These tests pin what that must not change: answers equal to
fresh models and to the exact backend, cores that are exactly infeasible,
and the rule that only a ``kInfeasible`` status proves anything.  A probe
may also be answered from the session's pool of known integer models; such
an answer must equal HiGHS's and rest on an exact witness.
"""

from __future__ import annotations

import math
import random
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule
from scipy.optimize._highspy._core import HighsModelStatus

from repro.protocols.library import flock_of_birds_threshold_n_protocol
from repro.smtlite import scipy_backend
from repro.smtlite.scipy_backend import ScipyTheorySolver, _HighsModel
from repro.smtlite.theory import ExactTheorySolver, TheoryConstraint, verify_model
from repro.verification.strong_consensus import check_strong_consensus_impl

VARIABLES = ("x", "y", "z")


@st.composite
def systems(draw, min_size=1, max_size=8):
    """Small bounded integer systems ``sum a_i x_i + c <= 0`` over up to 3 variables."""
    names = VARIABLES[: draw(st.integers(1, len(VARIABLES)))]
    bounds = {}
    for name in names:
        lower = draw(st.sampled_from([-3, 0]))
        bounds[name] = (lower, lower + draw(st.integers(0, 6)))
    coefficients = st.fixed_dictionaries({name: st.integers(-3, 3) for name in names})
    constraints = draw(
        st.lists(
            st.builds(TheoryConstraint.from_expr, coefficients, st.integers(-8, 8)),
            min_size=min_size,
            max_size=max_size,
        )
    )
    return constraints, bounds


def exactly_infeasible(constraints, bounds, indices) -> bool:
    subset = [constraints[index] for index in indices]
    return not ExactTheorySolver().check(subset, bounds).satisfiable


def pooled_witness(solver, constraints, bounds, rows):
    """A pooled model, completed inside the bounds, that satisfies exactly ``rows``.

    Columns outside the rows take their lower (else upper, else zero)
    bound, as a HiGHS solution of the subset is free to choose.
    """
    subset = [constraints[row] for row in rows]
    used = {name for constraint in subset for name in constraint.variables()}
    index = solver._var_index
    for solution, _ in solver._pool:
        model = {name: solver._default_value(bounds.get(name, (0, None))) for name in bounds}
        for name in used:
            column = index[name]
            model[name] = int(solution[column]) if column < len(solution) else 0
        if verify_model(subset, bounds, model):
            return model
    return None


def model_answers():
    return scipy_backend._PROBES.value(outcome="model")


def half_integer_system():
    """``2x = 1`` (rows 0 and 1) plus six satisfiable rows: infeasible only by integrality.

    The LP relaxation is feasible, so the elastic LP finds no candidate and
    the whole row set goes into the dichotomic shrink.
    """
    constraints = [
        TheoryConstraint.from_expr({"x": 2}, -1),
        TheoryConstraint.from_expr({"x": -2}, 1),
    ] + [TheoryConstraint.from_expr({"y": 1, "z": -1}, -k) for k in range(6)]
    bounds = {"x": (0, 10), "y": (0, 10), "z": (0, 10)}
    return constraints, bounds


@pytest.fixture
def one_error_probe(monkeypatch):
    """Turn the first probe HiGHS does not prove infeasible into a ``kModelError``.

    The forced probe is one whose kept rows are satisfiable, so counting
    the error as a proof would return a core that is not one.
    """
    original = _HighsModel._run
    forced = []

    def run(self, kept, time_limit):
        status = original(self, kept, time_limit)
        if status != HighsModelStatus.kInfeasible and not forced:
            forced.append(kept.copy())
            return HighsModelStatus.kModelError
        return status

    monkeypatch.setattr(_HighsModel, "_run", run)
    return forced


class TestAgreementWithExactBackend:
    @given(systems())
    @settings(max_examples=80, deadline=None)
    def test_check_agrees_and_cores_are_exact(self, system):
        constraints, bounds = system
        expected = ExactTheorySolver().check(constraints, bounds)
        result = ScipyTheorySolver().check(constraints, bounds)
        assert result.satisfiable == expected.satisfiable
        if not result.satisfiable:
            assert result.core
            assert set(result.core) <= set(range(len(constraints)))
            assert exactly_infeasible(constraints, bounds, result.core)

    @given(systems(min_size=2))
    @settings(max_examples=40, deadline=None)
    def test_minimize_core_keeps_infeasibility(self, system):
        constraints, bounds = system
        if ExactTheorySolver().check(constraints, bounds).satisfiable:
            return
        core = ScipyTheorySolver().minimize_core(constraints, bounds, range(len(constraints)))
        assert exactly_infeasible(constraints, bounds, core)


class InterleavedProbes(RuleBasedStateMachine):
    """Probes on one persistent model answer as a fresh model of each subset does.

    One solver session serves every model, so probes are also answered from
    the known models of earlier systems, over other bounds.  Fresh models
    are built on a second session, so they do not feed the first one's pool.
    """

    @initialize(system=systems(min_size=2))
    def build(self, system):
        self.solver = ScipyTheorySolver()
        self.reference = ScipyTheorySolver()
        self.next_system(system)

    @rule(system=systems(min_size=2))
    def next_system(self, system):
        self.constraints, self.bounds = system
        self.model = self.solver._model(self.constraints, self.bounds)

    def fresh_status(self, rows):
        subset = [self.constraints[row] for row in rows]
        return self.reference._model(subset, self.bounds).solve()[0]

    @rule(data=st.data(), time_limit=st.sampled_from([math.inf, 5.0]))
    def probe(self, data, time_limit):
        rows = data.draw(
            st.lists(st.sampled_from(range(len(self.constraints))), min_size=1, unique=True).map(sorted)
        )
        answered = model_answers()
        proven = self.model.proven_infeasible(rows, time_limit=time_limit)
        assert proven == (self.fresh_status(rows) == HighsModelStatus.kInfeasible)
        if model_answers() > answered:
            assert not proven
            assert pooled_witness(self.solver, self.constraints, self.bounds, rows) is not None

    @rule()
    def solve_all(self):
        status, values = self.model.solve()
        assert status == self.fresh_status(range(len(self.constraints)))
        assert (values is None) == (status != HighsModelStatus.kOptimal)


TestInterleavedProbes = InterleavedProbes.TestCase
TestInterleavedProbes.settings = settings(max_examples=30, stateful_step_count=12, deadline=None)


class TestKnownModels:
    @given(st.lists(systems(), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_one_session_agrees_and_cores_are_exact(self, sequence):
        """A warm pool changes no verdict and keeps every core exactly infeasible."""
        solver = ScipyTheorySolver()
        for constraints, bounds in sequence:
            expected = ExactTheorySolver().check(constraints, bounds)
            result = solver.check(constraints, bounds)
            assert result.satisfiable == expected.satisfiable
            if not result.satisfiable:
                assert exactly_infeasible(constraints, bounds, result.core)

    def test_known_model_answers_without_a_run(self):
        constraints, bounds = half_integer_system()
        solver = ScipyTheorySolver()
        assert solver.check(constraints[2:], bounds).satisfiable
        model = solver._model(constraints, bounds)
        runs, answered = scipy_backend._RUNS.value(kind="probe"), model_answers()
        assert not model.proven_infeasible([0, 2, 3])
        assert scipy_backend._RUNS.value(kind="probe") == runs
        assert model_answers() == answered + 1
        assert pooled_witness(solver, constraints, bounds, [0, 2, 3]) is not None
        assert model.proven_infeasible([0, 1])
        assert scipy_backend._RUNS.value(kind="probe") == runs + 1
        assert model_answers() == answered + 1

    def test_empty_bounds_leave_every_probe_to_highs(self):
        """With ``lower > upper`` on a column HiGHS proves any row set infeasible.

        Every row holds for the pooled ``x = 0``; answering from it would
        keep all six rows in the core instead of one.
        """
        solver = ScipyTheorySolver()
        assert solver.check([TheoryConstraint.from_expr({"x": 1}, -3)], {"x": (0, 5)}).satisfiable
        constraints = [TheoryConstraint.from_expr({"x": 1}, -k) for k in range(3, 9)]
        bounds = {"x": (0, 5), "w": (3, 1)}
        answered = model_answers()
        result = solver.check(constraints, bounds)
        assert not result.satisfiable
        assert len(result.core) == 1
        assert model_answers() == answered

    def test_models_too_large_for_int64_rows_are_not_used(self):
        """``x = 2**33`` against the row ``2**31 x <= 5``: the int64 product wraps to 0.

        The pooled model would then seem to satisfy rows 0 and 1, which
        HiGHS proves infeasible together.
        """
        solver = ScipyTheorySolver()
        big = 2**33
        pinned = [TheoryConstraint.from_expr({"x": 1}, -big), TheoryConstraint.from_expr({"x": -1}, big)]
        assert solver.check(pinned, {"x": (0, None)}).model == {"x": big}
        constraints = [
            TheoryConstraint.from_expr({"x": 2**31}, -5),
            TheoryConstraint.from_expr({"x": -1}, big),
        ] + [TheoryConstraint.from_expr({"y": 1}, -k) for k in range(4)]
        bounds = {"x": (0, None), "y": (0, None)}
        result = solver.check(constraints, bounds)
        assert sorted(result.core) == [0, 1]
        assert not solver._model(constraints, bounds)._witnessed([0, 1])


class TestOnlyInfeasibleIsAProof:
    def test_model_error_on_a_shrink_probe_keeps_the_core_valid(self, one_error_probe):
        constraints, bounds = half_integer_system()
        result = ScipyTheorySolver().check(constraints, bounds)
        assert one_error_probe, "no probe was forced"
        assert not result.satisfiable
        assert exactly_infeasible(constraints, bounds, result.core)
        assert sorted(result.core) == [0, 1]

    def test_error_on_a_deletion_probe_keeps_the_row(self, one_error_probe):
        constraints, bounds = half_integer_system()
        solver = ScipyTheorySolver()
        core = solver.minimize_core(constraints, bounds, range(len(constraints)), max_checks=16)
        assert one_error_probe, "no probe was forced"
        assert exactly_infeasible(constraints, bounds, core)
        assert 0 in core and 1 in core

    def test_undecided_check_falls_back_to_the_exact_backend(self, monkeypatch):
        monkeypatch.setattr(_HighsModel, "_run", lambda self, kept, limit: HighsModelStatus.kSolveError)
        constraints, bounds = half_integer_system()
        result = ScipyTheorySolver().check(constraints, bounds)
        assert not result.satisfiable
        assert exactly_infeasible(constraints, bounds, result.core)
        sat = ScipyTheorySolver().check(constraints[2:], bounds)
        assert sat.satisfiable

    def test_is_satisfiable_falls_back_when_undecided(self, monkeypatch):
        monkeypatch.setattr(_HighsModel, "_run", lambda self, kept, limit: HighsModelStatus.kModelError)
        constraints, bounds = half_integer_system()
        solver = ScipyTheorySolver()
        assert not solver.is_satisfiable(constraints, bounds)
        assert solver.is_satisfiable(constraints[2:], bounds)


def equality_knapsacks(num_variables=18, seed=0):
    """Random integer equalities over ``[0, 3]``: infeasible, a few ms of branch-and-bound each."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(num_variables)]
    constraints = []
    for _ in range(num_variables // 2):
        coefficients = {name: rng.choice([2, 4, 6, 8, 10, 3, 5]) for name in names if rng.random() < 0.6}
        total = rng.randint(num_variables, 3 * num_variables)
        constraints.append(TheoryConstraint.from_expr(coefficients, -total))
        constraints.append(TheoryConstraint.from_expr({k: -c for k, c in coefficients.items()}, total))
    return constraints, {name: (0, 3) for name in names}


def test_time_limit_applies_per_run():
    """HiGHS's ``time_limit`` bounds each ``run()``, not the model's lifetime.

    Core shrinking gives every probe the same per-probe limit on one model;
    a lifetime limit would turn later probes into undecided ones.  The runs
    here spend five limits' worth of time in total, almost all of it inside
    HiGHS, and must all still end proven.
    """
    constraints, bounds = equality_knapsacks()
    model = ScipyTheorySolver()._model(constraints, bounds)
    everything = range(len(constraints))
    limit = 0.2
    spent = 0.0
    runs = 0
    while spent < 5 * limit and runs < 2000:
        start = time.perf_counter()
        assert model.proven_infeasible(everything, time_limit=limit), f"run {runs} undecided"
        spent += time.perf_counter() - start
        runs += 1
    assert spent >= 5 * limit


def test_runs_and_probe_outcomes_are_counted():
    runs, probes = scipy_backend._RUNS, scipy_backend._PROBES
    before = (
        runs.value(kind="check"),
        runs.value(kind="probe"),
        probes.value(outcome="proven"),
        probes.value(outcome="unproven"),
    )
    constraints, bounds = half_integer_system()
    ScipyTheorySolver().check(constraints, bounds)
    checks, probe_runs, proven, unproven = (
        runs.value(kind="check") - before[0],
        runs.value(kind="probe") - before[1],
        probes.value(outcome="proven") - before[2],
        probes.value(outcome="unproven") - before[3],
    )
    assert checks == 1
    assert probe_runs == proven + unproven
    assert proven >= 1 and unproven >= 1


def test_threshold_n_trail_is_unchanged_by_known_models(monkeypatch):
    """threshold-n c=5 keeps its refinement trail while the pool skips HiGHS runs.

    A shadow check still runs HiGHS on every probe the pool answers; it
    must never prove such a subset infeasible, or the pool would have
    changed an answer.
    """
    original = _HighsModel._witnessed
    shadow_statuses = []

    def witnessed(self, rows):
        answer = original(self, rows)
        if answer:
            shadow = _HighsModel(self.matrix.take(rows), self.rhs[rows], self.lower, self.upper, deque())
            shadow_statuses.append(shadow.solve()[0])
        return answer

    monkeypatch.setattr(_HighsModel, "_witnessed", witnessed)
    runs, probes = scipy_backend._RUNS, scipy_backend._PROBES
    outcomes = ("proven", "unproven", "model")
    runs_before = runs.value(kind="probe")
    asked_before = sum(probes.value(outcome=outcome) for outcome in outcomes)
    result = check_strong_consensus_impl(
        flock_of_birds_threshold_n_protocol(5), theory="scipy", backend="smtlite"
    )
    probe_runs = runs.value(kind="probe") - runs_before
    asked = sum(probes.value(outcome=outcome) for outcome in outcomes) - asked_before

    assert result.holds
    statistics = result.statistics
    assert statistics["iterations"] == 20
    assert len(result.refinements) == 19
    assert statistics["solver"]["theory_conflicts"] == 33
    assert shadow_statuses, "no probe was answered from a known model"
    assert HighsModelStatus.kInfeasible not in shadow_statuses
    assert probe_runs < asked
