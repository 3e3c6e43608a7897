import time

import numpy as np
import pytest

from darpsv import METHODS, formulations, milp, run_method
from darpsv.ddd import ddd_solve
from darpsv.events import enumerate_events
from darpsv.formulations import (build_abf, build_ebf, build_tsfrag, solve_abf,
                                 solve_ebf, solve_tsef, solve_tsfrag)
from darpsv.fragments import enumerate_fragments, joint_schedule
from darpsv.instance import (DatasetParams, InfeasibleCustomerError,
                             build_dataset2, random_instance, tighten_windows)
from darpsv.timespace import TimeGrid, expand_fragments
from darpsv.validate import brute_optimum, check

from conftest import (integerized, loc_of_node, make_instance,
                      synthetic_base, two_customer_matrix)
from suites import WORKLOADS, build_instance


def test_single_customer_forced_route(single_customer):
    inst = single_customer
    want = (inst.travel_cost[0, 1] + inst.travel_cost[1, 2]
            + inst.travel_cost[2, 3])
    for report in (solve_ebf(inst), solve_abf(inst),
                   solve_tsfrag(inst, resolution=1.0)):
        assert report.status == "optimal"
        assert report.objective == pytest.approx(want)
        assert report.routes.paths() == [[0, 1, 2, 3]]
        assert not check(inst, report.routes)


def test_tsfrag_single_customer_variable_structure(single_customer):
    frags = enumerate_fragments(single_customer)
    net = expand_fragments(single_customer, frags,
                           TimeGrid.fixed(single_customer, 1.0))
    model, vars_ = build_tsfrag(single_customer, net)
    sol = milp.solve(model)
    x_on = [c for c, v in enumerate(vars_.X) if sol.value(v) > 0.5]
    y_on = [a for a, v in enumerate(vars_.Y)
            if sol.value(v) > 0.5 and net.arcs[a].kind != "idle"]
    assert len(x_on) == 1
    assert len(y_on) == 2  # depot out, depot in (idle arcs are free noise)


def test_ebf_cover_rederived_from_raw_values():
    checked = 0
    for seed in range(12):
        try:
            inst = tighten_windows(random_instance(seed, n=3, capacity=2,
                                                   large_share=0.4))
        except InfeasibleCustomerError:
            continue
        net = enumerate_events(inst)
        model, vars_ = build_ebf(inst, net)
        sol = milp.solve(model)
        if sol.status != "optimal":
            continue
        for i in inst.pickups:
            flow = sum(round(sol.value(vars_.x[a]))
                       for a, arc in enumerate(net.arcs) if arc.loc_arc[0] == i)
            assert flow == inst.vehicles_required(i)
        checked += 1
    assert checked >= 5


def test_large_customer_synchronized_pair():
    # one large customer, two vehicles forced onto the same pair
    T = np.full((4, 4), 7.0)
    np.fill_diagonal(T, 0.0)
    inst = make_instance(1, T, [0, 0, 0, 0], [200, 100, 120, 500], [0, 60],
                         [0, 4, -4, 0], capacity=2, vehicles=2)
    for report in (solve_ebf(inst), solve_abf(inst),
                   solve_tsfrag(inst, resolution=1.0)):
        assert report.status == "optimal"
        # both vehicles traverse depot->p->d->depot: shared arcs cost twice
        assert report.objective == pytest.approx(2 * (7.0 + 7.0 + 7.0))
        assert len(report.routes.routes) == 2
        assert report.routes.sync_groups == {1: (0, 1)}
        assert not check(inst, report.routes)


def test_brute_agreement_small_random():
    agree = 0
    for seed in range(25):
        try:
            inst = tighten_windows(random_instance(seed, n=3, capacity=2,
                                                   large_share=0.4))
        except InfeasibleCustomerError:
            continue
        obj, _ = brute_optimum(inst)
        for report in (solve_ebf(inst), solve_abf(inst)):
            if obj is None:
                assert report.status == "infeasible"
            else:
                assert report.objective == pytest.approx(obj, abs=1e-4)
        agree += 1
    assert agree >= 15


def test_one_time_per_synchronized_location():
    inst = tighten_windows(random_instance(0, n=3, capacity=2, large_share=0.5))
    report = solve_ebf(inst)
    assert report.status == "optimal" and inst.large_pickups
    times = {}
    for route in report.routes.routes:
        for loc, t in route.stops:
            if 0 < loc < inst.destination:
                times.setdefault(loc, set()).add(round(t, 9))
    for loc, ts in times.items():
        assert len(ts) == 1  # one departure time per location


def test_subtour_cut_fires_once_then_optimal(subtour_regression):
    report = solve_tsfrag(subtour_regression, resolution=10.0)
    assert report.status == "optimal"
    assert report.cuts == 1
    assert report.objective == pytest.approx(208.0)
    # 5-minute rounding cannot close the cycle: no cut fires
    report5 = solve_tsfrag(subtour_regression, resolution=5.0)
    assert report5.cuts == 0
    assert report5.objective == pytest.approx(208.0)


def test_ebf_cuts_a_zero_length_cycle():
    # travel among the four customer stops is free, so p1 -> d1 -> p2 -> d2
    # -> p1 satisfies EBF's big-M time rows and would serve both customers
    # with no vehicle; its cut forces a route out of the depot
    T = two_customer_matrix(fill=0.0, depot_out=50.0, depot_in=50.0)
    inst = tighten_windows(make_instance(2, T, [0] * 6, [1000] * 6,
                                         [0, 100, 100], [0, 1, 1, -1, -1, 0],
                                         capacity=1, vehicles=2))
    report = solve_ebf(inst)
    assert report.status == "optimal" and report.cuts == 1
    assert report.objective == pytest.approx(100.0)
    assert report.objective == pytest.approx(brute_optimum(inst)[0])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_big_m_rows_have_no_tiny_bounds(workload):
    # M - T_ij left a rounding residue of up to 7.1e-15 where the bound is
    # 0 on every bench instance, and HiGHS warned of the tiny row bounds
    for seed in WORKLOADS[workload].instance_seeds:
        inst = build_instance(WORKLOADS[workload], seed)
        for model, _ in (build_ebf(inst, enumerate_events(inst, timed=True)),
                         build_abf(inst)):
            bounds = np.abs(np.r_[model.row_lower, model.row_upper])
            assert not ((bounds > 0) & (bounds < 1e-9)).any(), (seed, bounds[
                (bounds > 0) & (bounds < 1e-9)])


def test_presolve_probes_only_models_with_a_non_binary_column(monkeypatch):
    # without large customers every TSFrag column is binary; a large
    # customer's synchronized flows are integers up to 2, and EBF and ABF
    # link continuous times to binaries by big-M rows
    rules_off = []
    session = milp._session

    def recorded(time_limit, model):
        highs = session(time_limit, model)
        rules_off.append(highs.getOptionValue("presolve_rule_off")[1])
        return highs

    monkeypatch.setattr(milp, "_session", recorded)
    darp = tighten_windows(random_instance(1, n=4, vehicles=2, capacity=2,
                                           large_share=0.0))
    sync = tighten_windows(random_instance(1, n=4, vehicles=2, capacity=2,
                                           large_share=0.5))
    assert not darp.large_pickups and sync.large_pickups
    for solver, want in (
            (lambda: ddd_solve(darp, "tsfrag"), milp.PROBING_OFF),
            (lambda: solve_tsfrag(darp, 10.0), milp.PROBING_OFF),
            (lambda: ddd_solve(sync, "tsfrag"), 0),
            (lambda: solve_ebf(darp), 0),
            (lambda: solve_abf(darp), 0)):
        rules_off.clear()
        assert solver().status == "optimal"
        assert rules_off and set(rules_off) == {want}


def test_exact_grid_never_needs_cuts():
    for seed in range(10):
        inst = integerized(seed)
        try:
            inst = tighten_windows(inst)
        except InfeasibleCustomerError:
            continue
        report = solve_tsfrag(inst, resolution=1.0)
        assert report.cuts == 0


def test_callbacks_require_independent_schedules():
    inst = random_instance(3, n=2, capacity=2, large_share=1.0)
    assert inst.large_pickups
    with pytest.raises(ValueError, match="callbacks"):
        solve_tsfrag(inst, callbacks=True)


def test_callbacks_no_cut_on_feasible_routes():
    inst = tighten_windows(integerized(1, large_share=0.0))
    report = solve_tsfrag(inst, resolution=1.0, callbacks=True)
    if report.status != "optimal":
        pytest.skip("infeasible draw")
    assert report.cuts == 0  # integer data on the exact grid: nothing fires
    assert report.method == "tsfrag+c"


def test_callback_cut_accounting_matches_report():
    # coarse rounding on fractional data forces infeasible-path cuts
    fired = 0
    for seed in range(20):
        try:
            inst = tighten_windows(random_instance(seed, n=3, capacity=2,
                                                   large_share=0.0))
        except InfeasibleCustomerError:
            continue
        report = solve_tsfrag(inst, resolution=7.0, callbacks=True)
        fired += report.cuts
        if report.status == "optimal":
            ebf = solve_ebf(inst)
            assert report.objective == pytest.approx(ebf.objective, abs=1e-4)
            assert not check(inst, report.routes)
    assert fired > 0  # rounding made at least one path need a cut


def test_tsef_ride_rows_reject_discretized_route(ride_regression):
    # the discrete ride rows cut the one feasible plan away, so the
    # infeasible master proves nothing: a relaxation with no bound
    inst = ride_regression
    report = solve_tsef(inst, resolution=10.0)
    assert report.status == "relaxation" and report.bound is None
    cont = solve_ebf(inst)
    assert cont.status == "optimal"


def test_tsef_ddd_infeasible_master_is_a_relaxation(ride_regression):
    report = ddd_solve(ride_regression, "tsef")
    assert report.status == "relaxation"
    assert report.bound is None and report.routes is None
    exact = ddd_solve(ride_regression, "tsfrag")
    assert exact.status == "optimal"
    assert exact.objective == pytest.approx(110.0)


def test_formulation_agreement_on_exact_grid():
    for seed in range(10):
        try:
            inst = tighten_windows(integerized(seed, large_share=0.4))
        except InfeasibleCustomerError:
            continue
        reports = [solve_ebf(inst), solve_abf(inst),
                   solve_tsfrag(inst, resolution=1.0)]
        objs = [r.objective for r in reports]
        if objs[0] is None:
            assert all(o is None for o in objs)
        else:
            assert max(objs) - min(objs) < 1e-4


def test_timed_network_methods_agree_on_moderate_draws():
    # EBF solves the time-feasible event network; ABF and TSFrag+DDD build
    # no event network, so all three agreeing says the timed network kept
    # every optimum
    feasible = infeasible = large = 0
    for seed in range(40):
        inst = tighten_windows(random_instance(seed, n=5 + seed % 3,
                                               vehicles=3, capacity=3,
                                               large_share=0.3))
        large += bool(inst.large_pickups)
        reports = {"ebf": solve_ebf(inst, time_limit=120),
                   "abf": solve_abf(inst, time_limit=120),
                   "tsfrag+ddd": ddd_solve(inst, "tsfrag", time_limit=120)}
        assert reports["ebf"].stats["event_network"] == "timed"
        statuses = {r.status for r in reports.values()}
        if statuses == {"infeasible"}:
            infeasible += 1
            continue
        assert statuses == {"optimal"}, (seed, reports)
        objective = reports["ebf"].objective
        for method, report in reports.items():
            assert report.objective == pytest.approx(objective, abs=1e-4), \
                (seed, method)
            assert check(inst, report.routes) == [], (seed, method)
        feasible += 1
    assert feasible >= 30 and infeasible > 0 and large >= 30


def test_ebf_on_a_wide_window_bench_instance():
    # darp-n24-q6-ddd's instance seed 5: Q=6 and wide windows gave the paper
    # network 75,734 events and 242,755 arcs, and EBF over it ran for minutes
    base = tighten_windows(synthetic_base(5, n=24, vehicles=3, capacity=6))
    inst = tighten_windows(build_dataset2(base, DatasetParams(
        p_de=2.0, p_tw=30, variant="darp", fleet_multiplier=3)))
    ebf = solve_ebf(inst, time_limit=60)
    assert ebf.status == "optimal"
    assert ebf.stats["event_network"] == "timed"
    assert ebf.stats["V_E"] < 1000
    assert check(inst, ebf.routes) == []
    ddd = ddd_solve(inst, "tsfrag")
    assert ddd.status == "optimal"
    assert ebf.objective == pytest.approx(ddd.objective, abs=1e-4)


@pytest.mark.parametrize("method", METHODS)
def test_unreachable_pickup_is_infeasible_for_every_method(method):
    # the pickup window closes (l = 5) before a vehicle can arrive (T = 10);
    # untightened, the time-space methods build models with no columns
    T = np.array([[0.0, 10.0, 15.0, 20.0], [10.0, 0.0, 5.0, 10.0],
                  [15.0, 5.0, 0.0, 5.0], [20.0, 10.0, 5.0, 0.0]])
    inst = make_instance(1, T, [0, 0, 0, 0], [100, 5, 60, 200], [0, 30],
                         [0, 1, -1, 0], capacity=1, vehicles=1)
    report = run_method(inst, method)
    if method in ("tsef", "tsef+ddd"):
        # an inexact method's infeasible master proves nothing
        assert report.status == "relaxation" and report.bound is None
    else:
        assert report.status == "infeasible"


def test_fixed_grid_optimal_routes_validate():
    # every method on the same draws: an ok report carries routes that
    # check() accepts, its status is approximate exactly when its method is
    # TSEF or TSEF+DDD, and an exact one has the EBF optimum.  A fixed grid
    # rounds arcs down, so its optimum is a relaxation: without a continuous
    # schedule it reports a bound that no feasible plan beats, and no
    # method may call a draw infeasible that EBF solves
    failures, relaxations = [], 0
    for seed in range(40):
        inst = tighten_windows(random_instance(
            seed, n=4, vehicles=3, capacity=2 + seed % 2,
            large_share=0.0 if seed % 4 < 2 else 0.3))
        ebf_report = solve_ebf(inst)
        ebf = ebf_report.objective
        best = np.inf if ebf is None else ebf
        for method in METHODS:
            if method == "tsfrag+c" and inst.large_pickups:
                continue
            fixed_grid = method in ("tsef", "tsfrag", "tsfrag+c")
            for resolution in (5.0, 10.0) if fixed_grid else (None,):
                report = ebf_report if method == "ebf" else \
                    run_method(inst, method, resolution=resolution)
                case = (seed, method, resolution, report.status)
                if report.ok:
                    if check(inst, report.routes):
                        failures.append(case + ("rejected routes",))
                    approximate = report.status == "approximate"
                    if approximate != (method in ("tsef", "tsef+ddd")):
                        failures.append(case + ("approximate iff TSEF",))
                    if not approximate and abs(report.objective - best) > 1e-4:
                        failures.append(case + (report.objective, ebf))
                elif report.status == "relaxation" and report.bound is None:
                    # an inexact method's infeasible master, which proves
                    # nothing; on these draws only where EBF finds none
                    if method not in ("tsef", "tsef+ddd") or \
                            report.routes is not None or ebf is not None:
                        failures.append(case + ("no bound", ebf))
                elif report.status == "relaxation":
                    relaxations += 1
                    if report.routes is not None or \
                            report.bound > best + 1e-4:
                        failures.append(case + (report.bound, ebf))
                elif report.status != "infeasible" or ebf is not None:
                    failures.append(case + (ebf,))
    assert failures == []
    assert relaxations > 0  # the draws do reach paths with no schedule


def test_ok_reports_carry_the_earliest_joint_schedule():
    # every method times its location paths one way: an ok report's stops
    # are the earliest joint schedule of its paths, and check() accepts them
    checked = 0
    for seed in range(40):
        inst = tighten_windows(random_instance(
            seed, n=4, vehicles=3, capacity=2 + seed % 2,
            large_share=0.0 if seed % 4 < 2 else 0.3))
        for method in METHODS:
            if method == "tsfrag+c" and inst.large_pickups:
                continue
            fixed_grid = method in ("tsef", "tsfrag", "tsfrag+c")
            for resolution in (5.0, 10.0) if fixed_grid else (1.0,):
                report = run_method(inst, method, resolution=resolution)
                if not report.ok:
                    continue
                paths = report.routes.paths()
                times = joint_schedule(inst, paths)
                assert [r.stops for r in report.routes.routes] == [
                    [(loc, times[v][loc]) for loc in path]
                    for v, path in enumerate(paths)], (seed, method)
                assert check(inst, report.routes) == [], (seed, method)
                checked += 1
    assert checked > 300


def test_rejected_routes_report_relaxation(single_customer, monkeypatch):
    # a path reader that drops the delivery yields paths with a schedule
    # whose routes check() rejects: the solve keeps its bound and reports
    # no routes
    inst = single_customer
    plain = solve_tsfrag(inst, resolution=1.0)
    assert plain.status == "optimal"
    read = formulations.paths_tsfrag
    dropped = []

    def drop_delivery(*args):
        paths = [[loc for loc in path if not inst.is_delivery(loc)]
                 for path in read(*args)]
        dropped.append(paths)
        return paths

    monkeypatch.setattr(formulations, "paths_tsfrag", drop_delivery)
    report = solve_tsfrag(inst, resolution=1.0)
    assert dropped and joint_schedule(inst, dropped[-1]) is not None
    assert report.status == "relaxation"
    assert report.routes is None and report.objective is None
    assert report.bound == pytest.approx(plain.bound)


def test_exact_grid_tsef_synchronized_routes_validate():
    # demo 03's integer instance: the 1-minute TSEF optimum has the two
    # vehicles of its large customer on different grid stamps, and is
    # reported with their earliest joint schedule
    inst = tighten_windows(integerized(11, large_share=0.4))
    assert inst.large_pickups
    report = solve_tsef(inst, resolution=1.0)
    assert report.status == "approximate"
    assert check(inst, report.routes) == []


def test_empty_instance_yields_empty_routeset():
    from darpsv.instance import parse_cordeau
    from darpsv.ddd import ddd_solve
    inst = parse_cordeau("1 0 480 3 30\n0 1.0 2.0 0 0 0 480\n")
    for report in (solve_ebf(inst), solve_abf(inst),
                   ddd_solve(inst, "tsfrag")):
        assert report.status == "optimal"
        assert report.objective == 0.0
        assert report.routes.routes == []


def test_degenerate_grid_merging_all_times_still_solves(single_customer):
    # a step larger than any window collapses grids to {e, l}
    for solver, status in ((solve_tsef, "approximate"),
                           (solve_tsfrag, "optimal")):
        report = solver(single_customer, resolution=1e6)
        assert report.status == status
        assert report.objective == pytest.approx(12.0)


def test_tsef_extraction_idle_semantics(single_customer):
    # idle arcs carry no stop: the path is read off the movement arcs, and
    # the stop times are the paths' earliest joint schedule, however long
    # the flow waits on the grid
    import numpy as np
    from darpsv.events import enumerate_events
    from darpsv.formulations import build_tsef, decompose_tsef, paths_tsef
    from darpsv.validate import timed_routes
    from darpsv.fragments import joint_schedule
    from darpsv.milp import MilpSolution
    from darpsv.timespace import IDLE, TimeGrid, expand_events

    inst = single_customer
    enet = enumerate_events(inst)
    net = expand_events(inst, enet, TimeGrid.fixed(inst, 5.0))
    model, vars_ = build_tsef(inst, net)

    def arcs_where(pred):
        return [a for a, arc in enumerate(net.arcs) if pred(arc)]

    depot_out = min(arcs_where(lambda a: a.kind == "depot_out"))
    values = np.zeros(model.num_vars)
    flow = [depot_out]
    cur = net.arcs[depot_out].head
    # ride the network forward, idling once at the pickup and once at the
    # delivery when possible, and on to the next kept departure: only the
    # latest departure to each landing node has a move
    idled = set()
    while cur != net.dest_node:
        loc = loc_of_node(net, cur)
        options = [a for a in net.out_arcs[cur]]
        idles = [a for a in options if net.arcs[a].kind == IDLE]
        moves = [a for a in options if net.arcs[a].kind != IDLE]
        if idles and (loc not in idled or not moves):
            idled.add(loc)
            nxt = idles[0]
        else:
            nxt = moves[0]
        flow.append(nxt)
        cur = net.arcs[nxt].head
    assert idled == {1, 2}
    for a in flow:
        values[vars_.x[a]] = 1
        values[vars_.y[a]] = 1
    cost = sum(net.arcs[a].cost for a in flow)
    sol = MilpSolution("optimal", values, cost, cost, 0.0, 0.0)
    walks, cycles = decompose_tsef(inst, net, sol, vars_)
    assert len(walks) == 1 and not cycles
    paths = paths_tsef(inst, net, walks)
    assert paths == [[0, 1, 2, 3]]
    routes = timed_routes(inst, paths, sol.objective)
    times = joint_schedule(inst, paths)[0]
    assert routes.routes[0].stops == [(loc, times[loc]) for loc in paths[0]]
    assert check(inst, routes) == []


@pytest.mark.parametrize("solve, builder", [
    (solve_ebf, "enumerate_events"),
    (solve_abf, "build_abf"),
    (solve_tsef, "enumerate_events"),
    (solve_tsfrag, "enumerate_fragments"),
])
def test_time_limit_counts_network_building(single_customer, monkeypatch,
                                            solve, builder):
    build = getattr(formulations, builder)

    def slow_build(*args, **kwargs):
        time.sleep(0.2)
        return build(*args, **kwargs)

    monkeypatch.setattr(formulations, builder, slow_build)
    report = solve(single_customer, time_limit=0.1)
    assert report.status == milp.Status.TIME_LIMIT
    assert report.routes is None
