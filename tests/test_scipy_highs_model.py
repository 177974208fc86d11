"""The scipy backend's persistent HiGHS model: probes, proofs and counters.

One :class:`_HighsModel` serves a whole theory call — the feasibility solve
and every core-extraction probe — by switching rows on and off through
their bounds.  These tests pin what that must not change: answers equal to
fresh models and to the exact backend, cores that are exactly infeasible,
and the rule that only a ``kInfeasible`` status proves anything.
"""

from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule
from scipy.optimize._highspy._core import HighsModelStatus

from repro.smtlite import scipy_backend
from repro.smtlite.scipy_backend import ScipyTheorySolver, _HighsModel
from repro.smtlite.theory import ExactTheorySolver, TheoryConstraint

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
    """Probes on one persistent model answer as a fresh model of each subset does."""

    @initialize(system=systems(min_size=2))
    def build(self, system):
        self.constraints, self.bounds = system
        self.solver = ScipyTheorySolver()
        self.model = self.solver._model(self.constraints, self.bounds)

    def fresh_status(self, rows):
        subset = [self.constraints[row] for row in rows]
        return self.solver._model(subset, self.bounds).solve()[0]

    @rule(data=st.data(), time_limit=st.sampled_from([math.inf, 5.0]))
    def probe(self, data, time_limit):
        rows = data.draw(
            st.lists(st.sampled_from(range(len(self.constraints))), min_size=1, unique=True).map(sorted)
        )
        proven = self.model.proven_infeasible(rows, time_limit=time_limit)
        assert proven == (self.fresh_status(rows) == HighsModelStatus.kInfeasible)

    @rule()
    def solve_all(self):
        status, values = self.model.solve()
        assert status == self.fresh_status(range(len(self.constraints)))
        assert (values is None) == (status != HighsModelStatus.kOptimal)


TestInterleavedProbes = InterleavedProbes.TestCase
TestInterleavedProbes.settings = settings(max_examples=30, stateful_step_count=12, deadline=None)


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
