import itertools
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import darpsv
from darpsv import milp
from darpsv.milp import (BINARY, CONTINUOUS, EQ, GE, INTEGER, LE, MilpModel,
                         Status, resolve_with_cuts, solve)


def test_empty_model_is_trivially_optimal():
    sol = solve(MilpModel())
    assert sol.status == Status.OPTIMAL and sol.objective == 0.0


@pytest.mark.parametrize("sense, rhs, want", [(EQ, 1.0, Status.INFEASIBLE),
                                             (LE, 3.0, Status.OPTIMAL)])
def test_a_model_without_columns_is_decided_by_its_rows(sense, rhs, want):
    # HiGHS answers kModelEmpty whatever the rows say; each row reads 0
    m = MilpModel()
    m.add_constr([], sense, rhs)
    assert solve(m).status == want


def integer_model():
    """min x over x >= 3, x integer in [0, 10]."""
    m = MilpModel()
    x = m.add_var(INTEGER, 0, 10, obj=1.0)
    m.add_constr([(x, 1.0)], GE, 3.0)
    return m


def test_min_integer_above_threshold():
    sol = solve(integer_model())
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(3.0)
    assert sol.best_bound == pytest.approx(3.0)


VALUES = [6.0, 10.0, 12.0, 7.0, 3.0]
WEIGHTS = [1.0, 2.0, 3.0, 2.0, 1.0]
CAP = 5.0


def knapsack_model():
    m = MilpModel()
    xs = [m.add_var(BINARY, obj=-VALUES[i]) for i in range(5)]
    m.add_constr([(x, w) for x, w in zip(xs, WEIGHTS)], LE, CAP)
    return m


def test_knapsack_against_exhaustive_search():
    sol = solve(knapsack_model())
    best = max(sum(v for v, pick in zip(VALUES, picks) if pick)
               for picks in itertools.product([0, 1], repeat=5)
               if sum(w for w, pick in zip(WEIGHTS, picks) if pick) <= CAP)
    assert -sol.objective == pytest.approx(best)


def test_infeasible_status():
    m = MilpModel()
    x = m.add_var(CONTINUOUS, 0, 1)
    m.add_constr([(x, 1.0)], GE, 2.0)
    assert solve(m).status == Status.INFEASIBLE


def test_bound_never_exceeds_objective():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = MilpModel()
        xs = [m.add_var(INTEGER, 0, 4, obj=float(rng.uniform(1, 3)))
              for i in range(6)]
        m.add_constr([(x, 1.0) for x in xs], GE, 7.0)
        sol = solve(m)
        assert sol.best_bound <= sol.objective + 1e-6


def ray_model(kind, x_ub=np.inf):
    """min y - x over x >= y, x in [0, x_ub], y in [0, 5]: unbounded when
    x_ub is."""
    m = MilpModel()
    x = m.add_var(CONTINUOUS, 0, x_ub, obj=-1.0)
    y = m.add_var(kind, 0, 5, obj=1.0)
    m.add_constr([(x, 1.0), (y, -1.0)], GE, 0.0)
    return m


def test_model_validation():
    m = MilpModel()
    m.add_var(CONTINUOUS, 0.0, 1.0)
    with pytest.raises(ValueError, match="unknown var"):
        m.add_constr([(5, 1.0)], LE, 0.0)
    with pytest.raises(ValueError, match="lb"):
        m.add_var(CONTINUOUS, 2.0, 1.0)
    with pytest.raises(ValueError, match="bad kind"):
        m.add_var("x", CONTINUOUS)  # a name where the kind goes
    # a column without finite bounds could make a model unbounded
    for kind in (CONTINUOUS, INTEGER):
        with pytest.raises(ValueError, match="must be finite"):
            ray_model(kind)
    for lb, ub in ((-np.inf, 0.0), (0.0, np.nan), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            m.add_var(CONTINUOUS, lb, ub)
    assert m.add_var(BINARY) == 1  # clipped to [0, 1]
    assert (m.col_lb[1], m.col_ub[1]) == (0.0, 1.0)


def test_resolve_with_cuts_silent_generator_solves_once():
    m = MilpModel()
    x = m.add_var(INTEGER, 0, 5, obj=1.0)
    m.add_constr([(x, 1.0)], GE, 2.0)
    sol, info = resolve_with_cuts(m, lambda s: [])
    assert sol.status == Status.OPTIMAL and info.solves == 1 and info.num_cuts == 0


def test_resolve_with_cuts_accounting_and_bound_monotonicity():
    # min x, x in [0,10]; cuts push the lower bound up one unit at a time
    m = MilpModel()
    x = m.add_var(INTEGER, 0, 10, obj=1.0)
    bounds = []

    def generator(sol):
        bounds.append(sol.best_bound)
        if sol.values[x] < 4 - 1e-9:
            k = len(bounds)
            return [([(x, 1.0)], GE, float(k))]
        return []

    sol, info = resolve_with_cuts(m, generator)
    assert sol.objective == pytest.approx(4.0)
    assert info.num_cuts == 4 and info.solves == 5
    assert bounds == sorted(bounds)  # valid cuts never regress the bound


def infeasible_ray_model(kind):
    m = ray_model(kind, x_ub=9.0)
    m.add_constr([(1, 1.0)], GE, 7.0)  # above y's upper bound of 5
    return m


def counted_runs(monkeypatch, outcome=None):
    """The time limits of the _run_highs calls from now on; with an
    outcome, each call returns it instead of running HiGHS."""
    runs = []
    highs = milp._run_highs

    def recorded(lp, time_limit, model):
        runs.append(time_limit)
        return outcome or highs(lp, time_limit, model)

    monkeypatch.setattr(milp, "_run_highs", recorded)
    return runs


@pytest.mark.parametrize("kind", [CONTINUOUS, INTEGER])
def test_infeasible_ray_model(monkeypatch, kind):
    runs = counted_runs(monkeypatch)
    assert solve(infeasible_ray_model(kind)).status == Status.INFEASIBLE
    assert runs == [None]


def test_unbounded_or_infeasible_is_infeasible_after_one_session(monkeypatch):
    # HiGHS's MIP presolve may answer "unbounded or infeasible"; with every
    # column bounded that is infeasible, and no second session runs.  HiGHS
    # answers kInfeasible on the bounded infeasible models tried, so the
    # outcome is patched in
    runs = counted_runs(monkeypatch, (milp._MS.kUnboundedOrInfeasible, None,
                                      None))
    sol = solve(infeasible_ray_model(INTEGER), time.perf_counter() + 60.0)
    assert sol.status == Status.INFEASIBLE and sol.values is None
    assert len(runs) == 1


def test_a_call_past_its_deadline_starts_no_highs(monkeypatch):
    runs = counted_runs(monkeypatch)
    m = MilpModel()
    m.add_constr([(m.add_var(INTEGER, 0, 5, obj=1.0), 1.0)], GE, 2.0)
    sol = solve(m, deadline=time.perf_counter() - 1.0)
    assert sol.status == Status.TIME_LIMIT and sol.values is None
    assert sol.best_bound is None and runs == []


# every HiGHS model status a solve reports; any other is a ConfigurationError
REPORTED = {"kOptimal": Status.OPTIMAL, "kTimeLimit": Status.TIME_LIMIT,
            "kIterationLimit": Status.TIME_LIMIT,
            "kInfeasible": Status.INFEASIBLE,
            "kUnboundedOrInfeasible": Status.INFEASIBLE,
            "kModelError": Status.INFEASIBLE}


@pytest.mark.parametrize("name", list(milp._MS.__members__))
def test_every_highs_status_has_one_outcome(name):
    status = milp._MS.__members__[name]
    want = REPORTED.get(name)
    for mip, incumbent in itertools.product((True, False), repeat=2):
        info = SimpleNamespace(
            objective_function_value=2.0 if incumbent else milp.highs_core.kHighsInf,
            mip_dual_bound=1.0, mip_gap=0.5)
        x = np.zeros(2) if want in (Status.OPTIMAL, Status.TIME_LIMIT) else None
        if want is None:
            with pytest.raises(milp.ConfigurationError, match=name):
                milp._solution(status, info, x, mip, 0.1)
            continue
        sol = milp._solution(status, info, x, mip, 0.1)
        limit_with_incumbent = want == Status.TIME_LIMIT and mip and incumbent
        assert sol.status == (Status.FEASIBLE_WITH_GAP if limit_with_incumbent
                              else want), (mip, incumbent)
        assert (sol.values is not None) == (sol.status in (
            Status.OPTIMAL, Status.FEASIBLE_WITH_GAP))


def stopped_info(bound):
    """A HiGHS info record of a MIP stopped with no incumbent."""
    return SimpleNamespace(objective_function_value=milp.highs_core.kHighsInf,
                           mip_dual_bound=bound, mip_gap=np.inf)


@pytest.mark.parametrize("bound, want", [(3.5, 3.5), (-np.inf, None),
                                         (np.inf, None)])
def test_mip_stopped_without_incumbent_keeps_a_finite_bound(bound, want):
    for x in (None, np.zeros(2)):  # HiGHS returns a column vector at a limit
        sol = milp._solution(milp._MS.kTimeLimit, stopped_info(bound), x,
                             True, 0.1)
        assert sol.status == Status.TIME_LIMIT and sol.values is None
        assert sol.best_bound == want
    # a pure LP has no MIP bound
    lp = milp._solution(milp._MS.kTimeLimit, stopped_info(bound), np.zeros(2),
                        False, 0.1)
    assert lp.status == Status.TIME_LIMIT and lp.best_bound is None


@pytest.mark.parametrize("last_bound, want", [(3.0, 4.0), (5.0, 5.0),
                                              (None, 4.0)])
def test_resolve_with_cuts_stopped_keeps_the_larger_bound(monkeypatch,
                                                          last_bound, want):
    sols = iter([milp.MilpSolution(Status.OPTIMAL, np.zeros(1), 4.0, 4.0, 0.0),
                 milp.MilpSolution(Status.TIME_LIMIT, None, None, last_bound,
                                   0.0)])
    monkeypatch.setattr(milp, "solve", lambda model, deadline=None: next(sols))
    m = MilpModel()
    x = m.add_var(INTEGER, 0, 10, obj=1.0)
    sol, info = resolve_with_cuts(m, lambda s: [([(x, 1.0)], GE, 5.0)])
    assert sol.status == Status.TIME_LIMIT and info.solves == 2
    assert sol.best_bound == want


def test_pure_lp_reports_its_optimum_as_bound():
    m = MilpModel()
    x = m.add_var(CONTINUOUS, 0, 4, obj=2.0)
    y = m.add_var(CONTINUOUS, 0, 4, obj=3.0)
    m.add_constr([(x, 1.0), (y, 1.0)], GE, 5.0)
    sol = solve(m)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(11.0)
    assert sol.best_bound == sol.objective and sol.gap == 0.0
    assert sol.values == pytest.approx([4.0, 1.0])


@pytest.mark.parametrize("time_limit", [None, 2.5])
def test_a_session_reads_back_every_option(time_limit):
    # scipy.optimize.milp's options, with Feasibility Jump off, and presolve
    # probing off for a model whose columns are all binary
    for model, rules_off in ((knapsack_model(), 1 << 15),
                             (integer_model(), 0),
                             (infeasible_ray_model(INTEGER), 0)):
        want = {"log_to_console": False, "mip_rel_gap": 1e-9,
                "mip_heuristic_run_feasibility_jump": False, "presolve": "on",
                "presolve_rule_off": rules_off,
                "time_limit": np.inf if time_limit is None else time_limit}
        highs = milp._session(time_limit, model)
        for name, value in want.items():
            assert highs.getOptionValue(name) == (
                milp.highs_core.HighsStatus.kOk, value), (name, rules_off)


@pytest.mark.parametrize("name, value", [("no_such_option", 1),
                                         ("mip_rel_gap", "tight")])
def test_an_option_highs_rejects_is_a_configuration_error(monkeypatch, name,
                                                          value):
    # HiGHS itself returns kError, logs it and solves without the option
    monkeypatch.setitem(milp._HIGHS_OPTIONS, name, value)
    with pytest.raises(milp.ConfigurationError, match=name):
        solve(knapsack_model())


def test_highs_core_is_bundled_with_scipy():
    from scipy.optimize._highspy import _core

    version = tuple(int(v) for v in _core._Highs().version().split(".")[:2])
    assert version >= (1, 12)


def test_duplicate_entries_of_a_row_are_summed():
    m = MilpModel()
    x = m.add_var(CONTINUOUS, 0, 10, obj=1.0)
    m.add_constr([(x, 1.0), (x, 2.0)], GE, 6.0)  # 3x >= 6
    assert solve(m).objective == pytest.approx(2.0)


def test_resolve_with_cuts_exhausted_budget_returns_time_limit():
    m = MilpModel()
    x = m.add_var(INTEGER, 0, 5, obj=1.0)
    m.add_constr([(x, 1.0)], GE, 2.0)
    sol, info = resolve_with_cuts(m, lambda s: [], deadline=time.perf_counter())
    assert sol.status == Status.TIME_LIMIT and info.solves == 0


def run_python(code):
    """stdout of code run in a fresh interpreter that imports this darpsv."""
    src = str(Path(darpsv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_only_the_highs_core_of_scipy_is_loaded():
    # scipy.optimize's package import, with scipy.sparse and scipy.linalg,
    # took 0.5 s of the 0.7 s that importing darpsv took (2-vCPU VM)
    code = ("import os, sys, scipy, darpsv\n"
            "core = darpsv.milp.highs_core\n"
            "folder = os.path.join(scipy.__path__[0], 'optimize', '_highspy')\n"
            "print(core.__name__, os.path.dirname(core.__file__) == folder)\n"
            "print(*(name in sys.modules for name in\n"
            "        ('scipy.optimize', 'scipy.sparse', 'scipy.linalg')))\n")
    assert run_python(code) == ["scipy.optimize._highspy._core", "True",
                                "False", "False", "False"]


SCIPY_MILP = ("import numpy as np, scipy.optimize\n"
              "res = scipy.optimize.milp(\n"
              "    [1.0], integrality=[1], bounds=scipy.optimize.Bounds(0, 9),\n"
              "    constraints=scipy.optimize.LinearConstraint([[2.0]], 3, np.inf))\n"
              "print(res.status, res.fun)\n")
DARPSV_MILP = ("import darpsv\n"
               "from darpsv.milp import GE, INTEGER, MilpModel, solve\n"
               "m = MilpModel()\n"
               "m.add_constr([(m.add_var(INTEGER, 0, 9, 1.0), 2.0)], GE, 3)\n"
               "sol = solve(m)\n"
               "print(sol.status, sol.objective)\n")


@pytest.mark.parametrize("order", [[DARPSV_MILP, SCIPY_MILP],
                                   [SCIPY_MILP, DARPSV_MILP]],
                         ids=["darpsv-first", "scipy-first"])
def test_darpsv_and_scipy_optimize_share_the_highs_core(order):
    # one module object whatever the import order: loaded twice, HiGHS's
    # pybind11 types would be registered twice
    check = "print(darpsv.milp.highs_core is scipy.optimize._highspy._core)\n"
    printed = {DARPSV_MILP: ["optimal", "2.0"], SCIPY_MILP: ["0", "2.0"]}
    assert run_python("".join(order) + check) == [
        *printed[order[0]], *printed[order[1]], "True"]


def random_model(rng, nr, nv, dups):
    """A model whose rows name random columns; each cell named at all is
    named once or, with dups, up to three times.  Columns beyond those
    drawn stay empty, as do rows that draw no column."""
    m = MilpModel()
    for j in range(nv):
        m.add_var(CONTINUOUS, 0.0, 1.0)
    for r in range(nr):
        cells = rng.choice(nv, size=rng.integers(0, min(nv, 6) + 1), replace=False)
        coeffs = []
        for j in cells:
            coeffs += [(int(j), float(v))
                       for v in rng.normal(size=rng.integers(1, 4) if dups else 1)]
        rng.shuffle(coeffs)
        m.add_constr(coeffs, GE, 0.0)
    return m


def test_colwise_matrix_equals_scipys():
    from scipy.sparse import coo_array

    rng = np.random.default_rng(7)
    models = [random_model(rng, int(rng.integers(0, 30)), int(rng.integers(1, 30)),
                           dups=k % 2 == 1) for k in range(40)]
    no_entries = MilpModel()
    no_entries.add_var(CONTINUOUS, 0.0, 1.0)
    no_entries.add_constr([], GE, 0.0)
    models.append(no_entries)
    counts = set()  # entries per named cell, over all models
    empty_row = empty_col = False
    for model in models:
        rows = np.array(model.coo_row, dtype=np.int64)
        cols = np.array(model.coo_col, dtype=np.int64)
        a = model.to_highs().a_matrix_
        want = coo_array((np.array(model.coo_val, dtype=np.float64), (rows, cols)),
                         shape=(model.num_constrs, model.num_vars)).tocsc()
        assert np.array_equal(a.start_, want.indptr)
        assert np.array_equal(a.index_, want.indices)
        assert np.array(a.value_, dtype=np.float64).tobytes() == want.data.tobytes()
        counts.update(np.unique(rows * model.num_vars + cols, return_counts=True)[1])
        empty_row |= (np.bincount(rows, minlength=model.num_constrs) == 0).any()
        empty_col |= (np.bincount(cols, minlength=model.num_vars) == 0).any()
    assert empty_row and empty_col
    assert {1, 2, 3} <= counts


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
