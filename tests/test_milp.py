import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import darpsv
from darpsv import milp
from darpsv.formulations import build_tsfrag
from darpsv.fragments import enumerate_fragments
from darpsv.instance import random_instance, tighten_windows
from darpsv.milp import (BINARY, CONTINUOUS, GE, INTEGER, LE, MilpModel,
                         Status, resolve_with_cuts, solve, write_lp)
from darpsv.timespace import TimeGrid, expand_fragments


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


VALUES = [6.0, 10.0, 12.0, 7.0, 3.0]
WEIGHTS = [1.0, 2.0, 3.0, 2.0, 1.0]
CAP = 5.0


def knapsack_model():
    m = MilpModel("knapsack")
    xs = [m.add_var(f"x {i}", BINARY, obj=-VALUES[i]) for i in range(5)]
    m.add_constr("cap", [(x, w) for x, w in zip(xs, WEIGHTS)], LE, CAP)
    return m


def test_knapsack_against_exhaustive_search():
    sol = solve(knapsack_model())
    best = max(sum(v for v, pick in zip(VALUES, picks) if pick)
               for picks in itertools.product([0, 1], repeat=5)
               if sum(w for w, pick in zip(WEIGHTS, picks) if pick) <= CAP)
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


def ray_model(kind):
    m = MilpModel()
    x = m.add_var("x", CONTINUOUS, 0, np.inf, obj=-1.0)
    y = m.add_var("y", kind, 0, 5, obj=1.0)
    m.add_constr("c", [(x, 1.0), (y, -1.0)], GE, 0.0)
    return m


def test_unbounded_status():
    assert solve(ray_model(CONTINUOUS)).status == Status.UNBOUNDED
    # HiGHS's MIP presolve says only "unbounded or infeasible", which
    # scipy.optimize.milp maps to no status either
    with pytest.raises(milp.ConfigurationError, match="unbounded or infeasible"):
        solve(ray_model(INTEGER))


def test_pure_lp_reports_its_optimum_as_bound():
    m = MilpModel("lp")
    x = m.add_var("x", CONTINUOUS, 0, 4, obj=2.0)
    y = m.add_var("y", CONTINUOUS, 0, 4, obj=3.0)
    m.add_constr("c", [(x, 1.0), (y, 1.0)], GE, 5.0)
    sol = solve(m)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(11.0)
    assert sol.best_bound == sol.objective and sol.gap == 0.0
    assert sol.values == pytest.approx([4.0, 1.0])


def test_highs_core_is_bundled_with_scipy():
    from scipy.optimize._highspy import _core

    version = tuple(int(v) for v in _core._Highs().version().split(".")[:2])
    assert version >= (1, 12)


def test_duplicate_entries_of_a_row_are_summed():
    m = MilpModel()
    x = m.add_var("x", CONTINUOUS, 0, 10, obj=1.0)
    m.add_constr("c", [(x, 1.0), (x, 2.0)], GE, 6.0)  # 3x >= 6
    assert solve(m).objective == pytest.approx(2.0)


def tsfrag_master():
    inst = tighten_windows(random_instance(3, n=4, vehicles=2, capacity=3,
                                           large_share=0.0))
    net = expand_fragments(inst, enumerate_fragments(inst),
                           TimeGrid.fixed(inst, 10.0))
    return build_tsfrag(inst, net)[0]


@pytest.mark.parametrize("build", [knapsack_model, tsfrag_master])
def test_lp_file_reads_back_to_the_same_optimum(tmp_path, build):
    from scipy.optimize._highspy import _core

    model = build()
    want = solve(model)
    assert want.status == Status.OPTIMAL
    path = tmp_path / "model.lp"
    write_lp(model, path)
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == _core.HighsStatus.kOk
    assert highs.getNumCol() == model.num_vars
    assert highs.getNumRow() == model.num_constrs
    highs.setOptionValue("mip_rel_gap", milp.MIP_REL_GAP)
    highs.run()
    assert highs.getModelStatus() == _core.HighsModelStatus.kOptimal
    got = highs.getInfo().objective_function_value
    assert got == pytest.approx(want.objective, rel=1e-9, abs=1e-9)


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
    sol, info = resolve_with_cuts(m, lambda s: [], deadline=time.perf_counter())
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


def test_missing_highs_core_is_a_configuration_error():
    # a SciPy without the bundled core fails at import, naming its version
    src = str(Path(darpsv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, scipy\n"
            "sys.modules['scipy.optimize._highspy._core'] = None\n"
            "try:\n"
            "    import darpsv.milp\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, scipy.__version__ in str(exc))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "ConfigurationError True"
