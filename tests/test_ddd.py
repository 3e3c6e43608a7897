import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from darpsv import ddd, formulations, milp, run_method
from darpsv.ddd import StallError, ddd_solve, refine_grid, selection_model
from darpsv.formulations import (TsfragMaster, build_tsfrag,
                                 separate_subtours, solve_ebf)
from darpsv.fragments import (enumerate_fragments, feasible_schedule,
                              joint_schedule)
from darpsv.instance import (EPS, InfeasibleCustomerError, random_instance,
                             tighten_windows)
from darpsv.timespace import TimeGrid, expand_fragments
from darpsv.validate import brute_optimum, check

from conftest import make_instance
from test_timespace import _master_optima


def test_selection_all_actual_lengths_is_zero():
    inst = random_instance(1, n=2, large_share=0.0)
    paths = [[0, 1, 3, 5], [0, 2, 4, 5]]
    sched = joint_schedule(inst, paths)
    if sched is None:
        pytest.skip("infeasible draw")
    # paths that schedule flag nothing, whatever the master shortened
    assert selection_model(inst, paths, [(1, 3)]) is None


def test_selection_on_ride_time_route(ride_regression):
    path = [0, 1, 2, 3, 4, 5]
    arcs = [(2, 3), (1, 2)]
    # with ride limits 26 the route schedules continuously: Z = 0, and its
    # earliest schedule is 600/624/626/650
    assert selection_model(ride_regression, [path], arcs) is None
    times = joint_schedule(ride_regression, [path])[0]
    assert [round(times[loc]) for loc in (1, 2, 3, 4)] == [600, 624, 626, 650]
    # one minute less and every shortened arc is flagged, in input order
    tight = ride_regression.replace(ride=np.array([0.0, 25.0, 25.0]))
    assert joint_schedule(tight, [path]) is None
    assert selection_model(tight, [path], arcs) == [(2, 3), (1, 2)]


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
    short = dict.fromkeys(arc for path in paths for arc in zip(path, path[1:]))
    res = selection_model(inst, paths, list(short))
    oracle = joint_schedule(inst, paths)
    assert res == (None if oracle is not None else list(short))


def test_refine_inserts_single_point():
    inst = make_instance(1, np.full((4, 4), 7.0), [0, 0, 0, 0],
                         [100, 50, 60, 100], [0, 100], [0, 1, -1, 0])
    grid = TimeGrid(inst, {0: [0.0], 1: [10.0], 2: [0.0, 60.0], 3: [100.0]})
    added = refine_grid(grid, [(1, 2)], [], inst)
    assert added == 1 and 17.0 in grid[2]


def test_refine_window_clamp():
    inst = make_instance(1, np.full((4, 4), 7.0), [0, 0, 0, 0],
                         [100, 50, 20, 100], [0, 100], [0, 1, -1, 0])
    grid = TimeGrid(inst, {0: [0.0], 1: [40.0], 2: [0.0, 20.0], 3: [100.0]})
    assert refine_grid(grid, [(1, 2)], [], inst) == 0  # 47 > l = 20


def test_refine_reaches_fixed_point():
    inst = make_instance(1, np.full((4, 4), 7.0), [0, 0, 0, 0],
                         [100, 30, 60, 100], [0, 100], [0, 1, -1, 0])
    grid = TimeGrid(inst, {0: [0.0], 1: [0.0, 15.0, 30.0], 2: [0.0, 60.0],
                           3: [100.0]})
    rounds = 0
    while refine_grid(grid, [(1, 2)], [], inst):
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
    assert report.status == ("optimal" if mode == "tsfrag" else "approximate")
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


BRUTE_SHAPES = [  # the n >= 3 shapes of acceptance criterion 4
    dict(n=3, vehicles=2, capacity=2, large_share=0.4),
    dict(n=3, vehicles=3, capacity=3, large_share=0.3),
    dict(n=4, vehicles=3, capacity=2, large_share=0.35),
]


def _agreement_shape(seed):
    """The shape of the seed-th draw of
    test_timed_network_methods_agree_on_moderate_draws."""
    return dict(n=5 + seed % 3, vehicles=3, capacity=3, large_share=0.3)


def _ebf_optimum(inst):
    """EBF's optimum, None on an infeasible instance."""
    report = solve_ebf(inst, time_limit=120)
    assert report.status in ("optimal", "infeasible")
    return report.objective


# (seed, shape) draws, their true optimum, and the least chains, refined
# chains and risen chains a pass must see
GRID_CHAIN_CASES = {
    "brute": ([(seed, shape) for shape, seed
               in itertools.product(BRUTE_SHAPES, range(40))],
              lambda inst: brute_optimum(inst)[0], (110, 15, 20)),
    # too large for brute force
    "agreement": ([(seed, _agreement_shape(seed)) for seed in range(40)],
                  _ebf_optimum, (40, 15, 20)),
}


def _grid_chain(inst, frags, rng, points, rounds=3):
    """Grids G ⊂ G' ⊂ G'' ...: the 50-minute fixed grid; that grid with
    `points` seeded random in-window times at every location; then one
    grid per refinement that the DDD loop's own step makes of the TSFrag
    master's paths (master.shortened, selection_model, refine_grid), until
    they schedule or for `rounds` refinements."""
    grid = TimeGrid.fixed(inst, 50.0)
    chain = [grid]
    grid = TimeGrid(inst, grid.times)
    for loc in range(inst.num_locations):
        lo, hi = inst.earliest[loc], inst.latest[loc]
        for t in rng.uniform(lo, hi, size=points):
            grid.insert(loc, float(t))
    chain.append(grid)
    master = TsfragMaster(inst, frags)
    for _ in range(rounds):
        _, model = master.build(grid)
        sol, _, walks, _ = separate_subtours(
            model, master.decompose, master.physical, master.cut, None)
        if not sol.ok:
            break
        arcs, copies = master.shortened(walks)
        flagged = selection_model(inst, master.paths(walks), arcs)
        if flagged is None:
            break
        grid = TimeGrid(inst, grid.times)
        assert refine_grid(grid, flagged, copies, inst) > 0
        chain.append(grid)
    return chain


@pytest.mark.parametrize("name", GRID_CHAIN_CASES)
def test_tsfrag_masters_bound_the_optimum_and_rise_along_grid_chains(name):
    # DDD is exact only if the TSFrag master over every grid that contains
    # the fixed grid is a relaxation, and inserting time points never
    # lowers its optimum, whichever rule inserts them: random times here,
    # then DDD's own refinement.  An infeasible master counts as +inf
    draws, true_optimum, (min_chains, min_refined, min_risen) = \
        GRID_CHAIN_CASES[name]
    chains = refined = risen = 0
    for seed, shape in draws:
        try:
            inst = tighten_windows(random_instance(seed, **shape))
        except InfeasibleCustomerError:
            continue
        optimum = true_optimum(inst)
        frags = enumerate_fragments(inst)
        chain = _grid_chain(inst, frags, np.random.default_rng(seed),
                            points=1 + seed % 3)
        optima = []  # [LP, MIP] per grid
        for grid in chain:
            pair = _master_optima(inst, expand_fragments(inst, frags, grid),
                                  build_tsfrag)
            assert all(status in (milp.Status.OPTIMAL, milp.Status.INFEASIBLE)
                       for status, _ in pair)
            optima.append([math.inf if value is None else value
                           for _, value in pair])
        case = (shape, seed, optimum, optima)
        for lp, mip in optima:
            assert lp <= mip + 1e-6, case
            assert optimum is None or mip <= optimum + 1e-6, case
        for before, after in zip(optima, optima[1:]):
            assert all(b >= a - 1e-6 for a, b in zip(before, after)), case
        chains += 1
        refined += len(chain) > 2
        risen += optima[-1][1] > optima[0][1] + 1e-6
    assert (chains >= min_chains and refined >= min_refined
            and risen >= min_risen), (chains, refined, risen)


def test_shortened_lists_each_copy_that_holds_a_shortened_arc_once():
    # agreement draw 3 on a 20-minute grid: the master's paths share the
    # copy of large customer 2's fragment, hold a shortened arc in it and
    # in a copy with two interior visits, and use two copies that hold none
    inst = tighten_windows(random_instance(3, **_agreement_shape(3)))
    assert inst.large_pickups == (2,)
    master = TsfragMaster(inst, enumerate_fragments(inst))
    grid = TimeGrid.fixed(inst, 20.0)
    _, model = master.build(grid)
    sol, _, walks, _ = separate_subtours(
        model, master.decompose, master.physical, master.cut, None)
    assert sol.ok
    arcs, copies = master.shortened(walks)
    net = master.net
    used = [net.ts_frags[idx] for walk in walks for kind, idx in walk
            if kind == "frag"]
    paths = {copy: net.frags[copy.frag_id].path for copy in used}

    def holds_a_shortened_arc(copy):
        return any(arc in arcs for arc in zip(paths[copy], paths[copy][1:]))

    shared = {copy for copy in used if used.count(copy) == 2}
    assert [paths[copy] for copy in shared] == [(2, 7)]
    listed = [copy for copy in dict.fromkeys(used)
              if holds_a_shortened_arc(copy)]
    assert copies == [(paths[copy], copy.start_eff) for copy in listed]
    assert [path for path, _ in copies] == [(2, 7), (3, 5, 8, 10)]
    assert sum(not holds_a_shortened_arc(copy) for copy in set(used)) == 2
    # refine_grid inserts each listed copy's start, interior visits and
    # unrounded end, which the grid rounded down, and counts the new points
    refined = TimeGrid(inst, grid.times)
    schedules = [feasible_schedule(inst, paths[c], fixed_start=c.start_eff)
                 for c in listed]
    new = {(loc, t) for copy, sched in zip(listed, schedules)
           for loc, t in zip(paths[copy], sched.times)
           if not grid.contains(loc, t)}
    assert refine_grid(refined, [], copies, inst) == len(new) > 0
    for copy, sched in zip(listed, schedules):
        assert sched.start == copy.start_eff
        assert sched.end == pytest.approx(copy.end_actual, abs=1e-9)
        assert copy.disc > EPS
        assert not grid.contains(paths[copy][-1], copy.end_actual)
        assert all(refined.contains(loc, t)
                   for loc, t in zip(paths[copy], sched.times))


def test_tsef_ddd_approximate_on_ride_pattern(ride_regression):
    # continuous optimum exists, but the event mode's discrete ride rows cut
    # the only path: the result is never called optimal
    cont = solve_ebf(ride_regression)
    assert cont.status == "optimal"
    report = ddd_solve(ride_regression, "tsef", time_limit=60)
    assert report.status != "optimal"
    frag = ddd_solve(ride_regression, "tsfrag", time_limit=60)
    assert frag.status == "optimal"
    assert frag.objective == pytest.approx(cont.objective, abs=1e-6)


@pytest.mark.parametrize("seed", [10, 43, 49])
def test_tsef_ddd_stall_reports_relaxation_with_its_bound(seed):
    # feasible draws on which the discrete ride rows leave the event mode
    # paths that no refinement can schedule: the solve keeps its bound
    inst = tighten_windows(random_instance(seed, n=4, vehicles=3, capacity=2,
                                           large_share=0.3))
    ebf = solve_ebf(inst)
    assert ebf.status == "optimal"
    report = ddd_solve(inst, "tsef", time_limit=60)
    assert report.status == "relaxation"
    assert report.objective is None and report.routes is None
    assert report.bound <= ebf.objective + 1e-4


def test_tsef_ddd_above_the_optimum_is_approximate_not_optimal():
    # agreement draw 32: the discrete ride rows drive TSEF+DDD to paths that
    # schedule but cost more than the optimum, and to a bound above it
    inst = tighten_windows(random_instance(32, n=7, vehicles=3, capacity=3,
                                           large_share=0.3))
    ebf = solve_ebf(inst, time_limit=60)
    assert ebf.status == "optimal"
    assert ebf.objective == pytest.approx(108.300, abs=1e-3)
    report = ddd_solve(inst, "tsef", time_limit=60)
    assert report.status == "approximate"
    assert report.objective >= ebf.objective - 1e-4
    assert check(inst, report.routes) == []


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

    def counted(inst, *args, **kwargs):
        calls.append(inst)
        return enumerate_(inst, *args, **kwargs)

    monkeypatch.setattr(ddd, name, counted)
    report = ddd_solve(single_customer, mode, time_limit=60)
    assert report.status == ("optimal" if mode == "tsfrag" else "approximate")
    assert calls == [single_customer]


def test_every_highs_call_of_a_ddd_solve_stops_at_one_deadline(monkeypatch):
    # grid expansion runs before each master; its time counts against the
    # limit of that master's HiGHS calls, and masters are the only calls
    inst = tighten_windows(random_instance(10, n=4, vehicles=2, capacity=2,
                                           large_share=0.0))
    expand = formulations.expand_fragments
    pause = 0.2
    expanded = []

    def slow(*args):
        time.sleep(pause)
        expanded.append(None)
        return expand(*args)

    monkeypatch.setattr(formulations, "expand_fragments", slow)
    build = formulations.build_tsfrag
    masters = []  # every model a master built

    def built(*args):
        model, vars_ = build(*args)
        masters.append(model)
        return model, vars_

    monkeypatch.setattr(formulations, "build_tsfrag", built)
    solves = []  # (model, deadline, clock on entry)
    solve = milp.solve

    def recorded(model, deadline=None):
        solves.append((model, deadline, time.perf_counter()))
        return solve(model, deadline)

    monkeypatch.setattr(milp, "solve", recorded)
    # (HiGHS time limit, clock at the call, entry into its milp.solve,
    # expansions so far)
    budgets = []
    highs = milp._run_highs

    def highs_recorded(lp, time_limit, model):
        budgets.append((time_limit, time.perf_counter(), solves[-1][2],
                        len(expanded)))
        return highs(lp, time_limit, model)

    monkeypatch.setattr(milp, "_run_highs", highs_recorded)
    limit = 30.0
    start = time.perf_counter()
    report = ddd_solve(inst, "tsfrag", initial_delta=20.0, time_limit=limit)
    assert report.status == "optimal" and report.iterations >= 3
    assert all(any(model is m for m in masters) for model, _, _ in solves)
    deadline = solves[0][1]
    assert start + limit <= deadline <= start + limit + pause
    assert all(d == deadline for _, d, _ in solves)
    assert budgets
    for budget, at, entry, expansions in budgets:
        # far from the deadline, so above milp.solve's 0.05 s floor: the
        # limit is what was left of the deadline at some instant between
        # entering milp.solve and calling HiGHS
        assert budget > 0.05
        assert deadline - at <= budget <= deadline - entry
        assert budget <= limit - pause * expansions


def test_time_limit_keeps_the_last_network_sizes(monkeypatch):
    # the deadline passes during the first selection, so the solve stops at
    # the top of iteration 2 and reports the sizes of the network it solved
    limit = 2.0
    inst = tighten_windows(random_instance(10, n=4, vehicles=2, capacity=2,
                                           large_share=0.0))
    expand = formulations.expand_fragments
    sizes = []  # network stats when built, before refinement grows the grid

    def recorded(*args):
        net = expand(*args)
        sizes.append(net.stats())
        return net

    select = ddd.selection_model

    def slow_selection(inst, paths, arcs):
        flagged = select(inst, paths, arcs)
        time.sleep(max(0.0, called + limit - time.perf_counter()) + 0.05)
        return flagged

    monkeypatch.setattr(formulations, "expand_fragments", recorded)
    monkeypatch.setattr(ddd, "selection_model", slow_selection)
    called = time.perf_counter()  # the solve's deadline is just after
    report = ddd_solve(inst, "tsfrag", initial_delta=20.0, time_limit=limit)
    assert report.status == "time_limit" and report.iterations == 1
    assert len(sizes) == 1 and report.history[0].z != 0
    assert "ts_arcs" in report.stats and report.stats == sizes[0]


def test_master_stopped_with_incumbent_is_never_optimal(monkeypatch):
    # every master comes back as if the deadline stopped it with its
    # optimum as incumbent and a lower bound: the running bound uses only
    # those bounds, and Z = 0 on such a master is not a proven optimum
    inst = tighten_windows(random_instance(10, n=4, vehicles=2, capacity=2,
                                           large_share=0.0))
    separate = ddd.separate_subtours
    bounds = []

    def stopped(*args):
        sol, info, walks, cut_sets = separate(*args)
        if sol.ok:
            bounds.append(sol.objective - 1.0)
            sol = dataclasses.replace(
                sol, status=milp.Status.FEASIBLE_WITH_GAP,
                best_bound=bounds[-1], gap=1.0 / abs(sol.objective))
        return sol, info, walks, cut_sets

    monkeypatch.setattr(ddd, "separate_subtours", stopped)
    report = ddd_solve(inst, "tsfrag", initial_delta=20.0, time_limit=60)
    assert len(bounds) >= 3 and report.history[-1].z == 0
    assert report.status == "feasible_with_gap"
    assert report.bound <= max(bounds) + 1e-9
    assert all(h.bound <= max(bounds) + 1e-9 for h in report.history)
    assert check(inst, report.routes) == []
    assert report.objective == pytest.approx(report.bound + 1.0)


def test_master_stopped_without_incumbent_reports_its_own_bound(monkeypatch):
    # the first master whose optimum is above the running bound comes back
    # as if the deadline stopped it before its first incumbent, with that
    # optimum as dual bound: the report carries it
    inst = tighten_windows(random_instance(10, n=4, vehicles=2, capacity=2,
                                           large_share=0.0))
    separate = ddd.separate_subtours
    masters = []  # optima of the masters solved to the end
    stopped_bound = []

    def stopped(*args):
        sol, info, walks, cut_sets = separate(*args)
        if masters and sol.objective > max(masters) + 1e-6:
            stopped_bound.append(sol.objective)
            sol = milp.MilpSolution(milp.Status.TIME_LIMIT, None, None,
                                    sol.objective, sol.solve_seconds)
        else:
            masters.append(sol.objective)
        return sol, info, walks, cut_sets

    monkeypatch.setattr(ddd, "separate_subtours", stopped)
    report = ddd_solve(inst, "tsfrag", initial_delta=20.0, time_limit=60)
    assert len(stopped_bound) == 1
    assert report.status == "time_limit"
    assert report.objective is None and report.routes is None
    assert report.history[-1].bound == pytest.approx(max(masters))
    assert report.bound == pytest.approx(stopped_bound[0])


def test_refinement_grows_the_grid_whenever_z_is_not_zero(monkeypatch):
    # the loop runs one selection per iteration: every refinement it asks
    # for must add a time point, or the solve would stall
    added = []
    refine = ddd.refine_grid

    def recorded(*args):
        added.append(refine(*args))
        return added[-1]

    monkeypatch.setattr(ddd, "refine_grid", recorded)
    for seed in range(25):
        try:
            inst = tighten_windows(random_instance(
                seed, n=4, vehicles=3, capacity=2 + seed % 2,
                large_share=0.3 if seed % 4 >= 2 else 0.0))
        except InfeasibleCustomerError:
            continue
        for delta in (10.0, 50.0):
            ddd_solve(inst, "tsfrag", time_limit=60, initial_delta=delta)
    assert len(added) >= 20
    assert min(added) >= 1


def test_refinement_that_adds_nothing_raises_stall_error(monkeypatch):
    inst = tighten_windows(random_instance(9, n=3, vehicles=2, capacity=2,
                                           large_share=0.0))
    report = ddd_solve(inst, "tsfrag", time_limit=60)
    assert report.status == "optimal" and report.history[0].z != 0
    monkeypatch.setattr(ddd, "refine_grid", lambda *args: 0)
    with pytest.raises(StallError, match="iteration 1"):
        ddd_solve(inst, "tsfrag", time_limit=60)


def test_window_inverted_within_eps_is_a_point():
    # tightening sets e_1 = e_0 + T_01 = 10 just above l_1: HiGHS rejects
    # the inverted bounds and a grid on [10, l_1] holds only l_1
    T = np.array([[0, 10, 20, 20], [10, 0, 10, 20], [20, 10, 0, 20],
                  [20, 20, 20, 0]], dtype=float)
    inst = tighten_windows(make_instance(
        1, T, [0, 0, 0, 0], [100, 10 - 5e-7, 100, 200], [0, 30],
        [0, 1, -1, 0], capacity=1, vehicles=1))
    assert inst.earliest[1] == inst.latest[1] == 10.0
    for method in ("ebf", "abf", "tsfrag+ddd", "tsef+ddd"):
        report = run_method(inst, method, time_limit=60)
        assert report.status == ("approximate" if method == "tsef+ddd"
                                 else "optimal"), method
        assert report.objective == pytest.approx(40.0)
        assert check(inst, report.routes) == []
