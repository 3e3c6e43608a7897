import time

import numpy as np
import pytest

from darpsv import formulations, milp, run_method
from darpsv.events import enumerate_events
from darpsv.formulations import (build_ebf, build_tsfrag, solve_abf, solve_ebf,
                                 solve_tsef, solve_tsfrag)
from darpsv.fragments import enumerate_fragments
from darpsv.instance import (InfeasibleCustomerError, random_instance,
                             tighten_windows)
from darpsv.timespace import TimeGrid, expand_fragments
from darpsv.validate import brute_optimum, check

from conftest import make_instance


def integerized(seed, n=3, **kw):
    inst = random_instance(seed, n=n, **kw)
    T = np.ceil(inst.travel_time)
    np.fill_diagonal(T, 0.0)
    return inst.replace(travel_time=T, travel_cost=T.copy(),
                        earliest=np.floor(inst.earliest),
                        latest=np.ceil(inst.latest), ride=np.ceil(inst.ride))


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


def test_extraction_times_come_from_shared_location_variables():
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
    inst = ride_regression
    grid = TimeGrid.fixed(inst, 10.0)
    report = solve_tsef(inst, grid=grid)
    assert report.status == "infeasible"
    cont = solve_ebf(inst)
    assert cont.status == "optimal"


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


def test_fixed_grid_optimal_routes_validate():
    # a fixed grid rounds arcs down, so its optimum is a relaxation: it may
    # report optimal only with routes that schedule in continuous time, and
    # otherwise reports a bound that no feasible plan beats
    failures, relaxations = [], 0
    for seed in range(40):
        inst = tighten_windows(random_instance(
            seed, n=4, vehicles=3, capacity=2 + seed % 2,
            large_share=0.0 if seed % 4 < 2 else 0.3))
        ebf = solve_ebf(inst).objective
        best = np.inf if ebf is None else ebf
        for method in ("tsfrag", "tsef", "tsfrag+c"):
            if method == "tsfrag+c" and inst.large_pickups:
                continue
            for resolution in (5.0, 10.0):
                report = run_method(inst, method, resolution=resolution)
                case = (seed, method, resolution, report.status)
                if report.status == "optimal":
                    if check(inst, report.routes):
                        failures.append(case + ("rejected routes",))
                    if method != "tsef" and \
                            abs(report.objective - best) > 1e-4:
                        failures.append(case + (report.objective, ebf))
                elif report.status == "relaxation":
                    relaxations += 1
                    if report.routes is not None or \
                            report.bound > best + 1e-4:
                        failures.append(case + (report.bound, ebf))
    assert failures == []
    assert relaxations > 0  # the draws do reach paths with no schedule


def test_exact_grid_tsef_synchronized_routes_validate():
    # demo 03's integer instance: the 1-minute TSEF optimum has the two
    # vehicles of its large customer on different grid stamps, and is
    # reported with their earliest joint schedule
    inst = tighten_windows(integerized(11, large_share=0.4))
    assert inst.large_pickups
    report = solve_tsef(inst, resolution=1.0)
    assert report.status == "optimal"
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
    for solver in (solve_tsef, solve_tsfrag):
        report = solver(single_customer, resolution=1e6)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(12.0)


def test_tsef_extraction_idle_semantics(single_customer):
    # idle arcs carry no stop: the path is read off the movement arcs, and
    # the stop times are the paths' earliest joint schedule, however long
    # the flow waits on the grid
    import numpy as np
    from darpsv.events import enumerate_events
    from darpsv.formulations import (build_tsef, decompose_tsef, paths_tsef,
                                     timed_routes)
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
    # delivery when possible
    idled = set()
    while cur != net.dest_node:
        loc = net.loc_of_node(cur)
        options = [a for a in net.out_arcs[cur]]
        idles = [a for a in options if net.arcs[a].kind == IDLE]
        moves = [a for a in options if net.arcs[a].kind != IDLE]
        if idles and loc not in idled:
            idled.add(loc)
            nxt = idles[0]
        else:
            nxt = moves[0]
        flow.append(nxt)
        cur = net.arcs[nxt].head
    assert idled == {1, 2}
    for a in flow:
        values[vars_.chi[a]] = 1
        values[vars_.gamma[a]] = 1
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
    (solve_tsef, "enumerate_events"),
    (solve_tsfrag, "enumerate_fragments"),
])
def test_time_limit_counts_network_building(single_customer, monkeypatch,
                                            solve, builder):
    build = getattr(formulations, builder)

    def slow_build(inst):
        time.sleep(0.2)
        return build(inst)

    monkeypatch.setattr(formulations, builder, slow_build)
    report = solve(single_customer, time_limit=0.1)
    assert report.status == milp.Status.TIME_LIMIT
    assert report.routes is None
