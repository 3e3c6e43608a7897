import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import darpsv
from darpsv.milp import (BINARY, CONTINUOUS, GE, INTEGER, LE, MilpModel,
                         Status, resolve_with_cuts, solve, write_lp)


def test_empty_model_is_trivially_optimal():
    sol = solve(MilpModel("empty"))
    assert sol.status == Status.OPTIMAL and sol.objective == 0.0


def test_min_integer_above_threshold():
    m = MilpModel()
    x = m.add_var("x", INTEGER, 0, 10, obj=1.0)
    m.add_constr("lb", [(x, 1.0)], GE, 3.0)
    sol = solve(m)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(3.0)
    assert sol.best_bound == pytest.approx(3.0)


def test_knapsack_against_exhaustive_search():
    values = [6.0, 10.0, 12.0, 7.0, 3.0]
    weights = [1.0, 2.0, 3.0, 2.0, 1.0]
    cap = 5.0
    m = MilpModel("knapsack")
    xs = [m.add_var(f"x{i}", BINARY, obj=-values[i]) for i in range(5)]
    m.add_constr("cap", [(x, w) for x, w in zip(xs, weights)], LE, cap)
    sol = solve(m)
    best = max(sum(v for v, pick in zip(values, picks) if pick)
               for picks in itertools.product([0, 1], repeat=5)
               if sum(w for w, pick in zip(weights, picks) if pick) <= cap)
    assert -sol.objective == pytest.approx(best)


def test_infeasible_status():
    m = MilpModel()
    x = m.add_var("x", CONTINUOUS, 0, 1)
    m.add_constr("c", [(x, 1.0)], GE, 2.0)
    assert solve(m).status == Status.INFEASIBLE


def test_bound_never_exceeds_objective():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = MilpModel()
        xs = [m.add_var(f"x{i}", INTEGER, 0, 4, obj=float(rng.uniform(1, 3)))
              for i in range(6)]
        m.add_constr("c", [(x, 1.0) for x in xs], GE, 7.0)
        sol = solve(m)
        assert sol.best_bound <= sol.objective + 1e-6


def test_model_validation():
    m = MilpModel()
    m.add_var("x", CONTINUOUS)
    with pytest.raises(ValueError, match="duplicate"):
        m.add_var("x", CONTINUOUS)
    with pytest.raises(ValueError, match="unknown var"):
        m.add_constr("c", [(5, 1.0)], LE, 0.0)
    with pytest.raises(ValueError, match="lb"):
        m.add_var("y", CONTINUOUS, 2.0, 1.0)


def test_resolve_with_cuts_silent_generator_solves_once():
    m = MilpModel()
    x = m.add_var("x", INTEGER, 0, 5, obj=1.0)
    m.add_constr("c", [(x, 1.0)], GE, 2.0)
    sol, info = resolve_with_cuts(m, lambda s: [])
    assert sol.status == Status.OPTIMAL and info.solves == 1 and info.num_cuts == 0


def test_resolve_with_cuts_accounting_and_bound_monotonicity():
    # min x, x in [0,10]; cuts push the lower bound up one unit at a time
    m = MilpModel()
    x = m.add_var("x", INTEGER, 0, 10, obj=1.0)
    bounds = []

    def generator(sol):
        bounds.append(sol.best_bound)
        if sol.values[x] < 4 - 1e-9:
            k = len(bounds)
            return [(f"cut{k}", [(x, 1.0)], GE, float(k))]
        return []

    sol, info = resolve_with_cuts(m, generator)
    assert sol.objective == pytest.approx(4.0)
    assert info.num_cuts == 4 and info.solves == 5
    assert bounds == sorted(bounds)  # valid cuts never regress the bound


def test_lp_export_syntax(tmp_path):
    m = MilpModel("export")
    x = m.add_var("x one", INTEGER, 0, 3, obj=2.0)
    y = m.add_var("y", BINARY, obj=-1.0)
    m.add_constr("c 1", [(x, 1.0), (y, 2.0)], LE, 4.0)
    path = tmp_path / "model.lp"
    write_lp(m, path)
    text = path.read_text()
    for token in ("Minimize", "Subject To", "Bounds", "General", "Binary", "End"):
        assert token in text
    assert "x_one" in text


def test_resolve_with_cuts_exhausted_budget_returns_time_limit():
    m = MilpModel()
    x = m.add_var("x", INTEGER, 0, 5, obj=1.0)
    m.add_constr("c", [(x, 1.0)], GE, 2.0)
    sol, info = resolve_with_cuts(m, lambda s: [], time_limit=0.0)
    assert sol.status == Status.TIME_LIMIT and info.solves == 0


def test_scipy_is_imported_with_the_module():
    # importing SciPy inside solve() would bill ~0.5 s of import time to the
    # first solve of a process
    src = str(Path(darpsv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, darpsv.milp; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "True"
