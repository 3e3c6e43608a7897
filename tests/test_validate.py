import json

import numpy as np
import pytest

from darpsv.validate import Route, RouteSet
from darpsv.formulations import solve_ebf
from darpsv.instance import random_instance
from darpsv.validate import OracleSizeError, brute_optimum, check

from conftest import make_instance


@pytest.fixture
def sync_instance():
    """Three small customers on one vehicle, one large customer served
    jointly by two more (the overview-figure pattern)."""
    m = 10  # n = 4
    T = np.full((m, m), 5.0)
    np.fill_diagonal(T, 0.0)
    demand = [0, 1, 1, 1, 4, -1, -1, -1, -4, 0]
    inst = make_instance(4, T, [0.0] * m, [1000.0] * m, [0, 500, 500, 500, 500],
                         demand, capacity=2, vehicles=3)
    routes = [
        Route(0, [(0, 0.0), (1, 5.0), (5, 10.0), (2, 15.0), (6, 20.0),
                  (3, 25.0), (7, 30.0), (9, 35.0)]),
        Route(1, [(0, 0.0), (4, 6.0), (8, 12.0), (9, 20.0)]),
        Route(2, [(0, 0.0), (4, 6.0), (8, 12.0), (9, 20.0)]),
    ]
    cost = sum(T[i, j] for r in routes for i, j in zip(r.path, r.path[1:]))
    return inst, RouteSet(routes, float(cost), {4: (1, 2)})


def test_consistent_solution_has_no_violations(sync_instance):
    inst, rs = sync_instance
    assert check(inst, rs) == []


def test_perturbed_sync_time_flags_exactly_one(sync_instance):
    inst, rs = sync_instance
    stops = list(rs.routes[2].stops)
    stops[1] = (4, 5.5)  # one vehicle at the pickup half a minute early
    rs.routes[2].stops = stops
    kinds = [v.kind for v in check(inst, rs)]
    assert kinds.count("SyncTime") == 1
    assert "Increment" not in kinds


def test_missing_sync_vehicle_flags_count(sync_instance):
    inst, rs = sync_instance
    rs.routes = rs.routes[:2]
    rs.objective = rs.recost(inst)
    rs.sync_groups = {4: (1,)}
    kinds = {v.kind for v in check(inst, rs)}
    assert "SyncCount" in kinds


def test_window_ride_increment_and_cost_checks():
    inst = make_instance(1, np.full((4, 4), 10.0), [0, 20, 0, 0],
                         [100, 30, 25, 100], [0, 12], [0, 1, -1, 0],
                         vehicles=1, capacity=1)
    # window violated at p (t=10 < 20), increment violated 10->15 (<10),
    # ride 15-10=5 fine; cost reported wrong
    rs = RouteSet([Route(0, [(0, 0.0), (1, 10.0), (2, 15.0), (3, 40.0)])],
                  999.0)
    kinds = [v.kind for v in check(inst, rs)]
    assert "Window" in kinds and "Increment" in kinds and "CostMismatch" in kinds


@pytest.mark.parametrize("objective", [float("nan"), float("inf"),
                                       -float("inf")])
def test_an_objective_that_is_not_a_number_mismatches(sync_instance,
                                                      objective):
    # abs(recost - NaN) > tol is False: a NaN must not pass as the cost
    inst, rs = sync_instance
    rs.objective = objective
    assert [v.kind for v in check(inst, rs)] == ["CostMismatch"]


def test_capacity_empty_before_large_and_immediate_delivery():
    T = np.full((6, 6), 5.0)
    np.fill_diagonal(T, 0.0)
    inst = make_instance(2, T, [0.0] * 6, [1000.0] * 6, [0, 500, 500],
                         [0, 1, 4, -1, -4, 0], capacity=2, vehicles=2)
    # vehicle picks small 1, then the large 2 while loaded, then detours
    rs = RouteSet([Route(0, [(0, 0), (1, 5), (2, 10), (3, 15), (4, 20), (5, 25)]),
                   Route(1, [(0, 0), (2, 10), (4, 20), (5, 25)])], 0.0)
    rs.objective = rs.recost(inst)
    kinds = {v.kind for v in check(inst, rs)}
    assert "EmptyBeforeLarge" in kinds and "ImmediateDelivery" in kinds


def test_check_is_permutation_invariant(sync_instance):
    inst, rs = sync_instance
    rs.routes[1].stops[1] = (4, 6.0)
    before = sorted(str(v) for v in check(inst, rs))
    rs.routes = rs.routes[::-1]
    after = sorted(str(v) for v in check(inst, rs))
    assert [s.split("]")[0] for s in before] == [s.split("]")[0] for s in after]


def test_fleet_size_flagged():
    inst = make_instance(1, np.full((4, 4), 1.0), [0] * 4, [100] * 4, [0, 50],
                         [0, 1, -1, 0], vehicles=1)
    rs = RouteSet([Route(0, [(0, 0), (1, 1), (2, 2), (3, 3)]),
                   Route(1, [(0, 0), (3, 1)])], 0.0)
    rs.objective = rs.recost(inst)
    assert any(v.kind == "FleetSize" for v in check(inst, rs))


def test_brute_single_customer_forced_cost(single_customer):
    obj, rs = brute_optimum(single_customer)
    want = (single_customer.travel_cost[0, 1] + single_customer.travel_cost[1, 2]
            + single_customer.travel_cost[2, 3])
    assert obj == pytest.approx(want)
    assert check(single_customer, rs) == []


def test_brute_large_customer_doubles_shared_arcs():
    T = np.full((4, 4), 3.0)
    np.fill_diagonal(T, 0.0)
    inst = make_instance(1, T, [0] * 4, [500] * 4, [0, 100], [0, 4, -4, 0],
                         capacity=2, vehicles=2)
    obj, rs = brute_optimum(inst)
    assert obj == pytest.approx(2 * (3.0 + 3.0 + 3.0))
    assert len(rs.routes) == 2
    assert rs.sync_groups == {1: (0, 1)}
    t = {loc: time for loc, time in rs.routes[0].stops}
    u = {loc: time for loc, time in rs.routes[1].stops}
    assert t[1] == u[1] and t[2] == u[2]


def test_brute_guard():
    inst = random_instance(0, n=6, vehicles=2)
    with pytest.raises(OracleSizeError):
        brute_optimum(inst)


def test_brute_lower_bounds_any_accepted_routeset():
    for seed in range(8):
        inst = random_instance(seed, n=2, capacity=2, large_share=0.3)
        obj, rs = brute_optimum(inst)
        if obj is None:
            continue
        assert check(inst, rs) == []
        # perturbing to any other checked-feasible plan cannot beat it
        from darpsv.formulations import solve_ebf
        rep = solve_ebf(inst)
        assert rep.objective >= obj - 1e-6


def test_route_set_dict_round_trip(sync_instance):
    inst, fixed = sync_instance
    solved = solve_ebf(inst).routes
    assert solved.sync_groups  # the large customer is served jointly
    # one synchronized vehicle a minute late: rejected before and after
    late = RouteSet(list(fixed.routes), fixed.objective, fixed.sync_groups)
    late.routes[1] = Route(1, [(l, t + 1.0) for l, t in fixed.routes[1].stops])
    assert check(inst, late)
    for rs in (solved, fixed, late):
        again = RouteSet.from_dict(json.loads(json.dumps(rs.to_dict())))
        assert again == rs
        assert check(inst, again) == check(inst, rs)


def two_customers():
    """Customers 1 and 2 (pickups 1, 2; deliveries 3, 4) on a 5-minute
    matrix with loose windows; customer 1 may ride 12 minutes."""
    T = np.full((6, 6), 5.0)
    np.fill_diagonal(T, 0.0)
    return make_instance(2, T, [0.0] * 6, [1000.0] * 6, [0, 12, 500],
                         [0, 1, 1, -1, -1, 0], capacity=2, vehicles=2)


ROUTE_CASES = {
    # name: (stops of vehicle 0, its violations as (kind, location))
    "starts-off-the-depot": ([(1, 0), (3, 5), (5, 10)],
                             [("Precedence", 1), ("SyncCount", 2),
                              ("SyncCount", 4)]),
    "visits-twice": ([(0, 0), (1, 5), (3, 10), (1, 15), (3, 20), (2, 25),
                      (4, 30), (5, 35)],
                     [("Precedence", 1), ("Precedence", 3),
                      ("SyncCount", 1), ("SyncTime", 1), ("SyncCount", 3),
                      ("SyncTime", 3)]),
    "delivers-before-loading": ([(0, 0), (3, 5), (1, 10), (2, 15), (4, 20),
                                 (5, 25)],
                                [("Precedence", 3), ("Precedence", 1)]),
    "rides-too-long": ([(0, 0), (1, 5), (2, 10), (4, 15), (3, 20), (5, 25)],
                       [("RideTime", 1)]),
    "delivers-before-its-pickup": ([(0, 0), (2, 5), (3, 10), (1, 15),
                                    (4, 20), (5, 25)],
                                   [("Precedence", 1)]),
}


@pytest.mark.parametrize("name", list(ROUTE_CASES))
def test_each_route_rule_flags_its_location(name):
    stops, want = ROUTE_CASES[name]
    inst = two_customers()
    rs = RouteSet([Route(0, stops)], 0.0)
    rs.objective = rs.recost(inst)
    assert [(v.kind, v.location) for v in check(inst, rs)] == want


def test_sync_group_that_names_other_vehicles_is_flagged(sync_instance):
    inst, rs = sync_instance
    rs.sync_groups = {4: (0, 1)}  # vehicles 1 and 2 serve the large customer
    assert [(v.kind, v.route, v.location) for v in check(inst, rs)] == [
        ("SyncCount", -1, 4)]
