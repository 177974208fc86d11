"""scipy's HiGHS binding without ``scipy.optimize``, and the LP helper on it.

:mod:`repro.smtlite.highs` loads the HiGHS extension from its file so that
a verifier process never imports ``scipy.optimize``, ``scipy.sparse`` or
their dependencies.  These tests pin what that must not change: a later
``import scipy.optimize`` still works and shares the extension, the loader
falls back to a plain import, and :func:`repro.smtlite.highs.solve_lp`
answers exactly as ``scipy.optimize.linprog(method="highs")`` does, which
the tests use as an oracle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, sparse

from repro.protocols.protocol import Transition
from repro.smtlite import highs, scipy_backend
from repro.smtlite.scipy_backend import ScipyTheorySolver
from repro.smtlite.theory import TheoryConstraint
from repro.verification import layered_termination

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter on this source tree; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_a_check_imports_no_scipy_optimize_sparse_or_networkx():
    result = run_python(
        """
import json, sys
import repro.cli
from repro.api import Verifier
from repro.protocols.library import broadcast_protocol
from repro.smtlite import highs, scipy_backend

with Verifier() as verifier:
    holds = verifier.check(broadcast_protocol(), properties=["ws3"]).holds("ws3")
heavy = [name for name in ("scipy.optimize", "scipy.sparse", "networkx") if name in sys.modules]

from scipy import optimize
from scipy.optimize._highspy._core import _Highs

lp = optimize.linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-2.0], method="highs")
mip = optimize.milp([1.0], integrality=[1], bounds=optimize.Bounds([0.5], [3.0]))
print(json.dumps({
    "holds": holds,
    "heavy": heavy,
    "same_class": _Highs is highs._Highs,
    "lp": [lp.status, lp.fun],
    "milp": [mip.status, mip.x.tolist()],
}))
"""
    )
    assert result["holds"]
    assert result["heavy"] == []
    assert result["same_class"]
    assert result["lp"] == [0, 2.0]
    assert result["milp"] == [0, [1.0]]


@pytest.mark.parametrize("layout", ["missing", "broken"])
def test_loader_falls_back_to_a_plain_import(layout):
    """No extension file where scipy's layout puts it, or one that fails to load."""
    result = run_python(
        f"""
import importlib.machinery, importlib.util, json, pathlib, sys, tempfile
import numpy as np

if {layout!r} == "missing":
    location = pathlib.Path(tempfile.mkdtemp())
else:
    location = pathlib.Path(tempfile.mkdtemp())
    binary = location / "optimize" / "_highspy" / ("_core" + importlib.machinery.EXTENSION_SUFFIXES[0])
    binary.parent.mkdir(parents=True)
    binary.write_bytes(b"not an extension module")
real_find_spec = importlib.util.find_spec

def find_spec(name, package=None):
    if name != "scipy":
        return real_find_spec(name, package)
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(location)]
    return spec

importlib.util.find_spec = find_spec
from repro.smtlite import highs
found = highs._extension_file()
importlib.util.find_spec = real_find_spec
solution = highs.solve_lp(
    np.ones(1), (np.array([0, 1]), np.array([0]), np.array([-1.0])),
    np.array([-2.0]), np.zeros(1), np.full(1, np.inf),
)
print(json.dumps({{
    "found": found is not None,
    "optimize_imported": "scipy.optimize" in sys.modules,
    "core_file": sys.modules["scipy.optimize._highspy._core"].__file__,
    "x": solution.x.tolist(),
}}))
"""
    )
    assert result["found"] == (layout == "broken")
    assert result["optimize_imported"]
    assert result["core_file"].startswith(str(Path(optimize.__file__).parent))
    assert result["x"] == [2.0]


# ----------------------------------------------------------------------
# solve_lp against linprog
# ----------------------------------------------------------------------


@st.composite
def elastic_systems(draw):
    """Small integer systems ``sum a_i x_i + c <= 0``, often infeasible, some with empty bounds."""
    names = ("x", "y", "z", "w")[: draw(st.integers(1, 4))]
    bounds = {}
    for name in names:
        lower = draw(st.sampled_from([-3, 0, 1, None]))
        width = draw(st.sampled_from([-1, 0, 2, 5, None]))
        upper = None if width is None or lower is None else lower + width
        bounds[name] = (lower, upper)
    coefficients = st.dictionaries(st.sampled_from(names), st.integers(-3, 3), min_size=1)
    rows = st.builds(TheoryConstraint.from_expr, coefficients, st.integers(-8, 8))
    constraints = draw(st.lists(rows, min_size=1, max_size=8))
    return constraints, bounds


def linprog_elastic(model):
    """The elastic LP as ``linprog`` solves it: ``min sum(s)`` s.t. ``A x - s <= b``, ``s >= 0``."""
    num_rows, num_columns = model.matrix.shape
    indptr, indices, data, _ = model.matrix
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(num_rows, num_columns))
    elastic = sparse.hstack([matrix, -sparse.identity(num_rows, format="csr")], format="csr")
    bounds = [
        (None if np.isneginf(low) else low, None if np.isposinf(high) else high)
        for low, high in zip(model.lower, model.upper)
    ] + [(0, None)] * num_rows
    cost = np.concatenate([np.zeros(num_columns), np.ones(num_rows)])
    return optimize.linprog(cost, A_ub=elastic, b_ub=model.rhs, bounds=bounds, method="highs")


def spying_on_solve_lp(module):
    """Patch ``module.solve_lp`` to record every solution it returns."""
    solutions = []
    solve_lp = highs.solve_lp

    def spy(*args):
        solution = solve_lp(*args)
        solutions.append(solution)
        return solution

    return mock.patch.object(module, "solve_lp", spy), solutions


@given(elastic_systems())
@settings(max_examples=120, deadline=None)
def test_elastic_lp_answers_as_linprog(system):
    constraints, bounds = system
    solver = ScipyTheorySolver()
    model = solver._model(constraints, bounds)
    patch, solutions = spying_on_solve_lp(scipy_backend)
    with patch:
        core = solver._elastic_lp_core(model)
    (solution,) = solutions
    expected = linprog_elastic(model)
    assert (solution is not None) == expected.success
    if solution is None:
        assert core is None
        return
    assert solution.fun == expected.fun
    np.testing.assert_array_equal(solution.x, expected.x)
    np.testing.assert_array_equal(solution.row_dual, expected.ineqlin.marginals)
    support = [row for row, value in enumerate(expected.ineqlin.marginals) if abs(value) > 1e-7]
    assert core == (support if expected.fun > 1e-6 else None)


STATES = ("a", "b", "c", "d")


@st.composite
def layers(draw):
    """A few non-silent transitions over up to four states."""
    states = STATES[: draw(st.integers(2, 4))]
    pairs = st.tuples(st.sampled_from(states), st.sampled_from(states))
    transitions = [
        Transition.make(pre, post, name=f"t{index}")
        for index, (pre, post) in enumerate(draw(st.lists(st.tuples(pairs, pairs), min_size=1, max_size=6)))
    ]
    return [transition for transition in transitions if not transition.is_silent]


@given(layers())
@settings(max_examples=120, deadline=None)
def test_ranking_lp_answers_as_linprog(transitions):
    if not transitions:
        return
    states = sorted({state for transition in transitions for state in transition.states()})
    patch, solutions = spying_on_solve_lp(highs)
    with patch:
        layered_termination._ranking_via_scipy(transitions, states)
    (solution,) = solutions
    matrix = np.zeros((len(transitions), len(states)))
    for row, transition in enumerate(transitions):
        for state, change in transition.delta_map.items():
            matrix[row, states.index(state)] = change
    expected = optimize.linprog(
        c=np.ones(len(states)),
        A_ub=matrix,
        b_ub=-np.ones(len(transitions)),
        bounds=[(0, None)] * len(states),
        method="highs",
    )
    assert (solution is not None) == expected.success
    if solution is not None:
        np.testing.assert_array_equal(solution.x, expected.x)
        assert solution.fun == expected.fun
