import math
import time

import numpy as np
import pytest

from darpsv import ddd, milp
from darpsv.ddd import SelectionInputs, ddd_solve, refine_grid, selection_model
from darpsv.formulations import solve_ebf
from darpsv.fragments import joint_schedule
from darpsv.instance import InfeasibleCustomerError, random_instance, tighten_windows
from darpsv.timespace import TimeGrid
from darpsv.validate import brute_optimum, check

from conftest import make_instance


def test_selection_all_actual_lengths_is_zero():
    inst = random_instance(1, n=2, large_share=0.0)
    paths = [[0, 1, 3, 5], [0, 2, 4, 5]]
    sched = joint_schedule(inst, paths)
    if sched is None:
        pytest.skip("infeasible draw")
    inputs = SelectionInputs(paths, {}, [])
    res = selection_model(inst, inputs)
    assert res.feasible and res.z == 0 and res.delta == []
    # the returned times are a real schedule
    for path, times in zip(paths, sched):
        pass
    for path in paths:
        for i, j in zip(path, path[1:]):
            assert res.tau[j] >= res.tau[i] + inst.travel_time[i, j] - 1e-6


def test_selection_on_ride_time_route(ride_regression):
    path = [0, 1, 2, 3, 4, 5]
    short = {(1, 2): 20.0, (2, 3): 0.0, (3, 4): 24.0}
    inputs = SelectionInputs([path], short, [])
    # with ride limits 26 the route schedules continuously: Z = 0 with
    # times 600/624/626/650
    res = selection_model(ride_regression, inputs)
    assert res.feasible and res.z == 0
    assert [round(res.tau[loc]) for loc in (1, 2, 3, 4)] == [600, 624, 626, 650]
    # one minute less and some arc must stay shortened
    tight = ride_regression.replace(ride=np.array([0.0, 25.0, 25.0]))
    res = selection_model(tight, inputs)
    assert not res.feasible or res.z >= 1
    if res.feasible:
        assert res.delta


@pytest.mark.parametrize("seed", range(10))
def test_selection_zero_agrees_with_joint_oracle(seed):
    inst = random_instance(seed, n=3, large_share=0.3)
    rng = np.random.default_rng(seed)
    pickups = list(inst.pickups)
    rng.shuffle(pickups)
    paths = []
    chunk = max(1, len(pickups) // 2)
    for v in range(2):
        mine = pickups[v * chunk:(v + 1) * chunk] if v == 0 else pickups[chunk:]
        if not mine:
            continue
        path = [0]
        for c in sorted(mine):
            path += [c, c + inst.n]
        path.append(inst.destination)
        paths.append(path)
    if not paths:
        pytest.skip("degenerate split")
    inputs = SelectionInputs(paths, {}, [])
    res = selection_model(inst, inputs)
    oracle = joint_schedule(inst, paths)
    assert (res.feasible and res.z == 0) == (oracle is not None)


def test_refine_inserts_single_point():
    inst = make_instance(1, np.full((4, 4), 7.0), [0, 0, 0, 0],
                         [100, 50, 60, 100], [0, 100], [0, 1, -1, 0])
    grid = TimeGrid(inst, {0: [0.0], 1: [10.0], 2: [0.0, 60.0], 3: [100.0]})
    added = refine_grid(grid, [(1, 2)], inst)
    assert added == 1 and 17.0 in grid[2]


def test_refine_window_clamp():
    inst = make_instance(1, np.full((4, 4), 7.0), [0, 0, 0, 0],
                         [100, 50, 20, 100], [0, 100], [0, 1, -1, 0])
    grid = TimeGrid(inst, {0: [0.0], 1: [40.0], 2: [0.0, 20.0], 3: [100.0]})
    assert refine_grid(grid, [(1, 2)], inst) == 0  # 47 > l = 20


def test_refine_reaches_fixed_point():
    inst = make_instance(1, np.full((4, 4), 7.0), [0, 0, 0, 0],
                         [100, 30, 60, 100], [0, 100], [0, 1, -1, 0])
    grid = TimeGrid(inst, {0: [0.0], 1: [0.0, 15.0, 30.0], 2: [0.0, 60.0],
                           3: [100.0]})
    rounds = 0
    while refine_grid(grid, [(1, 2)], inst):
        rounds += 1
    assert rounds <= len(grid[1])
    assert {7.0, 22.0, 37.0} <= set(grid[2])


def test_ddd_terminates_first_iteration_on_expressive_grid(single_customer):
    # 1-minute initial grid on integer data already expresses the optimum
    report = ddd_solve(single_customer, "tsfrag", initial_delta=1.0)
    assert report.status == "optimal" and report.iterations == 1
    assert report.history[-1][2] == 0  # Z = 0 at return


@pytest.mark.parametrize("mode", ["tsfrag", "tsef"])
def test_ddd_trace_and_history(mode, single_customer):
    lines = []
    report = ddd_solve(single_customer, mode, trace=lines.append)
    assert report.status == "optimal"
    assert lines and all("bound=" in ln and "Z=" in ln for ln in lines)
    for k, entry in enumerate(report.history, start=1):
        assert entry[0] == k


def test_ddd_rejects_non_timespace_mode(single_customer):
    with pytest.raises(ValueError):
        ddd_solve(single_customer, "abf")


def test_ddd_bounds_monotone_and_sound():
    solved = 0
    for seed in range(30):
        try:
            inst = tighten_windows(random_instance(seed, n=3, capacity=2,
                                                   large_share=0.4))
        except InfeasibleCustomerError:
            continue
        report = ddd_solve(inst, "tsfrag", time_limit=60)
        bounds = [h[1] for h in report.history]
        assert bounds == sorted(bounds)
        if report.status == "optimal":
            assert report.history[-1][2] == 0  # terminates with Z = 0
            assert not check(inst, report.routes)
            obj, _ = brute_optimum(inst)
            assert report.objective == pytest.approx(obj, abs=1e-4)
            solved += 1
        else:
            assert report.status == "infeasible"
            assert brute_optimum(inst)[0] is None
    assert solved >= 10


def test_tsef_ddd_approximate_on_ride_pattern(ride_regression):
    # continuous optimum exists, but the event mode's discrete ride rows cut
    # the only path: the result is labeled approximate and diverges
    cont = solve_ebf(ride_regression)
    assert cont.status == "optimal"
    report = ddd_solve(ride_regression, "tsef", time_limit=60)
    assert report.approximate
    assert report.status != "optimal" or \
        abs(report.objective - cont.objective) > 1e-4
    frag = ddd_solve(ride_regression, "tsfrag", time_limit=60)
    assert frag.status == "optimal"
    assert frag.objective == pytest.approx(cont.objective, abs=1e-6)


def test_ddd_subtour_cuts_inside_master(subtour_regression):
    report = ddd_solve(subtour_regression, "tsfrag", initial_delta=10.0,
                       time_limit=60)
    assert report.status == "optimal"
    assert report.objective == pytest.approx(208.0)
    assert report.cuts >= 1
    assert not check(subtour_regression, report.routes)


def test_ddd_zero_budget_reports_time_limit(single_customer):
    report = ddd_solve(single_customer, "tsfrag", time_limit=0.0)
    assert report.status == "time_limit"
    assert report.objective is None


def test_split_flow_subtours_are_cut():
    # a synchronized pair can split its two flow units across a cycle's
    # node arcs; only usage-indicator cuts separate that configuration
    inst = tighten_windows(random_instance(10156, n=3, vehicles=2,
                                           capacity=2, large_share=0.4))
    report = ddd_solve(inst, "tsfrag", time_limit=60)
    assert report.status == "optimal"
    obj, _ = brute_optimum(inst)
    assert report.objective == pytest.approx(obj, abs=1e-4)
    assert report.cuts >= 1


def test_figure_eight_residual_decomposes():
    # two residual loops sharing one large fragment: cycle extraction must
    # give the lead-in flow back or the second loop strands
    inst = tighten_windows(random_instance(477, n=5, vehicles=3,
                                           capacity=2, large_share=0.3))
    report = ddd_solve(inst, "tsfrag", time_limit=60)
    assert report.status == "optimal"
    assert not check(inst, report.routes)


def test_ddd_history_records_named_fields(subtour_regression):
    lines = []
    report = ddd_solve(subtour_regression, "tsfrag", initial_delta=10.0,
                       time_limit=60, trace=lines.append)
    assert report.status == "optimal"
    assert [str(rec) for rec in report.history] == lines
    last = report.history[-1]
    assert (last.k, last.z, last.new_points) == (report.iterations, 0, 0)
    assert last.bound == pytest.approx(report.objective)
    assert sum(rec.cuts for rec in report.history) == report.cuts >= 1
    assert all(rec.master_seconds >= 0 for rec in report.history)
    assert tuple(last) == (last.k, last.bound, last.z, last.new_points,
                           last.master_seconds, last.cuts)


@pytest.mark.parametrize("mode, name", [("tsfrag", "enumerate_fragments"),
                                        ("tsef", "enumerate_events")])
def test_ddd_enumerates_through_its_own_binding(single_customer, monkeypatch,
                                                mode, name):
    # the benchmark's tracer replaces from-imported bindings such as
    # darpsv.ddd.enumerate_fragments, and its self-test reads that one
    calls = []
    enumerate_ = getattr(ddd, name)

    def counted(inst):
        calls.append(inst)
        return enumerate_(inst)

    monkeypatch.setattr(ddd, name, counted)
    report = ddd_solve(single_customer, mode, time_limit=60)
    assert report.status == "optimal"
    assert calls == [single_customer]


def selection_calls(monkeypatch, result=None):
    """Record the time limit of every selection-model solve; with result
    set, return it instead of solving."""
    calls = []
    solve = milp.solve

    def recorded(model, time_limit=None):
        if model.name != "selection":
            return solve(model, time_limit=time_limit)
        calls.append((time_limit, time.perf_counter()))
        return solve(model, time_limit=time_limit) if result is None else result

    monkeypatch.setattr(milp, "solve", recorded)
    return calls


def test_selection_solves_get_the_remaining_time(monkeypatch):
    # five DDD iterations from a 20-minute grid
    inst = tighten_windows(random_instance(10, n=4, vehicles=2, capacity=2,
                                           large_share=0.0))
    calls = selection_calls(monkeypatch)
    enumerate_ = ddd.enumerate_fragments
    pause = 0.3

    def slow(inst):
        time.sleep(pause)
        return enumerate_(inst)

    monkeypatch.setattr(ddd, "enumerate_fragments", slow)
    limit = 30.0
    start = time.perf_counter()
    report = ddd_solve(inst, "tsfrag", initial_delta=20.0, time_limit=limit)
    assert report.status == "optimal"
    assert len(calls) >= report.iterations >= 3
    given = [budget for budget, _ in calls]
    assert all(budget is not None and math.isfinite(budget) for budget in given)
    assert given == sorted(given, reverse=True)
    for budget, at in calls:
        # enumeration alone used `pause` of the budget; no more than the
        # whole wall time since the call began has gone
        assert limit - (at - start) <= budget <= limit - pause


def test_selection_time_limit_ends_the_solve_with_its_bound(
        subtour_regression, monkeypatch):
    timed_out = milp.MilpSolution(milp.Status.TIME_LIMIT, None, None, None, 0.0)
    calls = selection_calls(monkeypatch, timed_out)
    report = ddd_solve(subtour_regression, "tsfrag", initial_delta=10.0,
                       time_limit=30.0)
    assert len(calls) == 1
    assert report.status == "time_limit"
    assert report.objective is None and report.routes is None
    assert report.bound is not None and report.bound > 0
