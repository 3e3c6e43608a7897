import math
import time

import numpy as np
import pytest

from darpsv import milp, timespace
from darpsv.formulations import build_tsef, build_tsfrag
from darpsv.fragments import enumerate_fragments, feasible_schedule, start_interval
from darpsv.events import enumerate_events
from darpsv.instance import (DatasetParams, build_dataset2, random_instance,
                             tighten_windows)
from darpsv.timespace import (DEPOT_IN, DEPOT_OUT, GRID_TOL, IDLE, MOVE,
                              GridBudgetError, TimeGrid, TsArc, expand_events,
                              expand_fragments)

from conftest import integerized, loc_of_node, make_instance, synthetic_base
from test_graph import landing


def test_fixed_grid_values():
    inst = make_instance(1, np.ones((4, 4)), [0, 3, 10, 0], [50, 17, 30, 50],
                         [0, 100], [0, 1, -1, 0])
    grid = TimeGrid.fixed(inst, 5.0)
    assert grid[1] == [3, 8, 13, 17]  # e + k*delta, plus l
    assert grid[2] == [10, 15, 20, 25, 30]
    assert grid[1][0] == inst.earliest[1]


def test_fixed_grid_keeps_one_point_per_tolerance_and_stops_at_its_deadline():
    # steps of 0.4 * GRID_TOL over 1e-6-minute windows: points closer than
    # GRID_TOL to the last kept one are skipped
    narrow = make_instance(1, np.ones((4, 4)), [0, 3, 10, 0],
                           [1e-6, 3 + 1e-6, 10 + 1e-6, 1e-6], [0, 100],
                           [0, 1, -1, 0])
    tiny = TimeGrid.fixed(narrow, 4e-10)
    assert all(700 < len(ts) < 1100 for ts in tiny.times.values())
    assert all(b - a > GRID_TOL for ts in tiny.times.values()
               for a, b in zip(ts, ts[1:]))
    inst = make_instance(1, np.ones((4, 4)), [0, 3, 10, 0], [50, 17, 30, 50],
                         [0, 100], [0, 1, -1, 0])
    # past the deadline each window keeps its two ends
    late = TimeGrid.fixed(inst, 5.0, deadline=time.perf_counter())
    assert late.times == {loc: [inst.earliest[loc], inst.latest[loc]]
                          for loc in range(4)}
    assert TimeGrid.fixed(inst, 5.0, deadline=time.perf_counter() + 60.0
                          ).times == TimeGrid.fixed(inst, 5.0).times


def test_fixed_grid_refuses_a_step_past_its_point_budget(monkeypatch):
    # the windows sum to 134 minutes: a 5-minute step asks for 26.8 points
    inst = make_instance(1, np.ones((4, 4)), [0, 3, 10, 0], [50, 17, 30, 50],
                         [0, 100], [0, 1, -1, 0])
    monkeypatch.setattr(timespace, "GRID_POINT_BUDGET", 27)
    assert TimeGrid.fixed(inst, 5.0).size() == 31  # with e_p and l_p
    for delta in (4.9, 1e-9, 1e-300):
        with pytest.raises(GridBudgetError, match="more than the 27"):
            TimeGrid.fixed(inst, delta)


@pytest.mark.parametrize("delta", [0.0, -5.0, float("nan")])
def test_fixed_grid_rejects_non_positive_step(single_customer, delta):
    with pytest.raises(ValueError, match="positive"):
        TimeGrid.fixed(single_customer, delta)


def test_round_down_cases():
    inst = make_instance(1, np.ones((4, 4)), [0, 0, 10, 0], [50, 20, 30, 50],
                         [0, 100], [0, 1, -1, 0])
    grid = TimeGrid.fixed(inst, 10.0)
    assert grid.round_down(2, 23.4) == 20.0
    assert grid.round_down(2, 20.0) == 20.0  # exact grid point maps to itself
    assert grid.round_down(2, 9.0) is None  # before the whole grid
    assert grid.round_down(1, 10.0) == 10.0


def test_insert_respects_window_and_dedup():
    inst = make_instance(1, np.ones((4, 4)), [0, 0, 10, 0], [50, 20, 30, 50],
                         [0, 100], [0, 1, -1, 0])
    grid = TimeGrid.fixed(inst, 10.0)
    assert grid.insert(1, 5.5) is True
    assert grid.insert(1, 5.5) is False
    assert grid.insert(1, 99.0) is False  # outside the window
    assert grid[1] == [0, 5.5, 10, 20]


def test_copy_count_formula():
    # window width w, step delta, every start feasible: floor(w/delta)+1 copies
    T = np.full((4, 4), 5.0)
    np.fill_diagonal(T, 0.0)
    inst = make_instance(1, T, [0, 10, 0, 0], [500, 34, 500, 500], [0, 400],
                         [0, 1, -1, 0])
    frags = enumerate_fragments(inst)
    assert [f.path for f in frags] == [(1, 2)]
    interval = start_interval(inst, (1, 2))
    assert interval == (10.0, 34.0)  # every window point is a feasible start
    grid = TimeGrid.fixed(inst, 10.0)
    net = expand_fragments(inst, frags, grid)
    starts = {net.nodes[c.tail].t for c in net.ts_frags}
    assert len(net.ts_frags) == math.floor(24.0 / 10.0) + 1 + 1  # incl. l_p
    assert starts == {10.0, 20.0, 30.0, 34.0}


def test_exact_minute_grid_has_no_discrepancies():
    inst = integerized(3)
    frags = enumerate_fragments(inst)
    net = expand_fragments(inst, frags, TimeGrid.fixed(inst, 1.0))
    assert net.ts_frags, "expected at least one copy"
    for copy in net.ts_frags:
        assert copy.disc <= 1e-9
        assert copy.start_eff == pytest.approx(net.nodes[copy.tail].t)
    for arc in net.arcs:
        assert arc.disc <= 1e-9


def test_shortened_lengths_grow_monotonically_under_refinement():
    inst = random_instance(5, n=2, large_share=0.0)
    frags = enumerate_fragments(inst)
    coarse = TimeGrid.fixed(inst, 50.0)
    fine = TimeGrid.fixed(inst, 50.0)
    for loc in list(inst.pickups) + list(inst.deliveries):
        lo, hi = inst.earliest[loc], inst.latest[loc]
        for k in range(1, 8):
            fine.insert(loc, lo + k * (hi - lo) / 8.0)

    def shortened(net):
        out = {}
        for copy in net.ts_frags:
            key = (copy.frag_id, round(copy.start_eff, 6))
            out[key] = net.nodes[copy.head].t - net.nodes[copy.tail].t
        return out

    fine_net = expand_fragments(inst, frags, fine)
    a = shortened(expand_fragments(inst, frags, coarse))
    b = shortened(fine_net)
    for key, length in a.items():
        if key in b:
            # refinement never shortens an arc further
            assert b[key] >= length - 1e-9
    for copy in fine_net.ts_frags:
        actual = copy.end_actual - copy.start_eff
        # never longer than the true duration
        assert fine_net.nodes[copy.head].t - copy.start_eff <= actual + 1e-9


def test_destination_reachable_when_route_exists(single_customer):
    frags = enumerate_fragments(single_customer)
    net = expand_fragments(single_customer, frags, TimeGrid.fixed(single_customer, 10.0))
    reach = {net.origin_node}
    stack = [net.origin_node]
    while stack:
        u = stack.pop()
        heads = [net.arcs[a].head for a in net.out_arcs[u]]
        heads += [net.ts_frags[c].head for c in net.out_frags[u]]
        for h in heads:
            if h not in reach:
                reach.add(h)
                stack.append(h)
    assert net.dest_node in reach


def test_event_expansion_stamps_and_idles():
    inst = integerized(2)
    enet = enumerate_events(inst)
    net = expand_events(inst, enet, TimeGrid.fixed(inst, 1.0))
    moves = [a for a in net.arcs if a.kind == MOVE]
    idles = [a for a in net.arcs if a.kind == IDLE]
    assert moves and idles
    for arc in moves:
        assert arc.disc <= 1e-9  # exact grid on integer data
        i, j = arc.loc_arc
        tail_t, head_t = net.nodes[arc.tail].t, net.nodes[arc.head].t
        assert head_t == pytest.approx(
            max(tail_t + inst.travel_time[i, j], inst.earliest[j]))
    for arc in idles:
        assert loc_of_node(net, arc.tail) == loc_of_node(net, arc.head)
        assert arc.cost == 0.0
        assert net.nodes[arc.head].t > net.nodes[arc.tail].t


def test_partial_grid_rounds_down():
    # travel 1.3 from a grid point lands between points and rounds down,
    # shortening the arc to length 1
    T = np.full((4, 4), 1.3)
    np.fill_diagonal(T, 0.0)
    inst = make_instance(1, T, [0, 0, 0, 0], [50, 10, 10, 50], [0, 100],
                         [0, 1, -1, 0])
    grid = TimeGrid(inst, {0: [0.0], 1: [0.0, 1.0, 2.0], 2: [0.0, 1.0, 2.0],
                           3: [50.0]})
    frags = enumerate_fragments(inst)
    net = expand_fragments(inst, frags, grid)
    by_start = {net.nodes[c.tail].t: c for c in net.ts_frags}
    copy = by_start[1.0]
    assert net.nodes[copy.head].t == pytest.approx(2.0)
    assert copy.end_actual == pytest.approx(2.3)
    assert copy.disc == pytest.approx(0.3)


def _refined(inst, grid, rng, points=3):
    """The grid with a few off-step times inserted at every customer."""
    fine = TimeGrid(inst, grid.times)
    for loc in list(inst.pickups) + list(inst.deliveries):
        lo, hi = inst.earliest[loc], inst.latest[loc]
        for t in rng.uniform(lo, hi, size=points):
            fine.insert(loc, float(t))
    return fine


def _network(net):
    return net.nodes, net.ts_frags, net.arcs


def _cache_is_exact(inst, rng):
    frags = enumerate_fragments(inst)
    coarse = TimeGrid.fixed(inst, 30.0)
    expand_fragments(inst, frags, coarse)  # fills the set's timing cache
    fine = _refined(inst, coarse, rng)
    cached = expand_fragments(inst, frags, fine)
    fresh = expand_fragments(inst, enumerate_fragments(inst), fine)
    assert _network(cached) == _network(fresh)
    for copy in cached.ts_frags:  # and the schedule oracle, uncached
        path = frags[copy.frag_id].path
        assert copy.end_actual == feasible_schedule(
            inst, path, fixed_start=copy.start_eff).end
    return len(fresh.ts_frags)


def test_fragment_timing_cache_matches_a_fresh_set_after_refinement():
    # a fragment set keeps start intervals and ends across expansions; over
    # a refined grid it must give the network a new set gives, copy for copy
    copies = 0
    for seed in range(20):
        inst = tighten_windows(random_instance(seed, n=4 + seed % 3, vehicles=3,
                                               capacity=3, large_share=0.3))
        copies += _cache_is_exact(inst, np.random.default_rng(seed))
    assert copies > 100


def test_fragment_timing_cache_on_a_bench_instance():
    # darp-n24-q6-ddd's instance seed 4
    base = tighten_windows(synthetic_base(4, n=24, vehicles=3, capacity=6))
    inst = tighten_windows(build_dataset2(base, DatasetParams(
        p_de=2.0, p_tw=30, variant="darp", fleet_multiplier=3)))
    assert _cache_is_exact(inst, np.random.default_rng(4)) > 100


def _add_dominated_copies(inst, grid, net, links):
    """Add to net every copy of a link (tail place, head place, i, j, event
    arc id or -1) that keeping only the latest departure to each head node
    leaves out: one from every grid time of i (e_origin alone at the
    origin) that lands, by the landing rule, between nodes of net.  An
    all-departures network keeps the same nodes, since a path through a
    left-out copy can wait at its tail and take the kept one instead.
    Returns the number of copies added."""
    origin, dest = inst.origin, inst.destination
    present = {(arc.tail, arc.head, arc.loc_arc, arc.event_arc)
               for arc in net.arcs}
    added = 0
    for tail, head, i, j, event_arc in links:
        for t in [inst.earliest[i]] if i == origin else grid[i]:
            want = landing(inst, grid, i, j, t)
            if want is None:
                continue
            u = net.node_index.get((tail, round(float(t), 9)))
            v = net.node_index.get((head, round(float(want[0]), 9)))
            if u is None or v is None or (u, v, (i, j), event_arc) in present:
                continue
            kind = (DEPOT_OUT if i == origin else
                    DEPOT_IN if j == dest else MOVE)
            net.arcs.append(TsArc(u, v, (i, j), kind,
                                  float(inst.travel_cost[i, j]),
                                  inst.arc_cap(i, j), float(want[1]),
                                  event_arc))
            added += 1
    net.index()
    return added


def _master_optima(inst, net, build):
    """Status and objective of the fixed-grid master that build makes
    (build_tsfrag or build_tsef), without cuts: its LP relaxation first,
    then the MIP."""
    model, _ = build(inst, net)
    mip = milp.solve(model)
    model.col_kind = [milp.CONTINUOUS] * model.num_vars
    lp = milp.solve(model)
    return [(sol.status, sol.objective) for sol in (lp, mip)]


def _optima_kept(inst, grid, expand, links, build):
    """Assert that build's master over the network expand() returns has
    the LP and MIP optima of that network with every dominated copy of
    links added back; returns the number added."""
    net, full = expand(), expand()
    added = _add_dominated_copies(inst, grid, full, links)
    want = _master_optima(inst, full, build)
    got = _master_optima(inst, net, build)
    assert [status for status, _ in got] == [status for status, _ in want]
    for (_, value), (_, expected) in zip(got, want):
        assert value == pytest.approx(expected, rel=1e-9, abs=1e-6)
    return added


OPTIMA_DRAWS = [tighten_windows(random_instance(seed, n=4 + seed % 3, vehicles=3,
                                                capacity=2 + seed % 2,
                                                large_share=0.3 * (seed % 2)))
                for seed in range(10)]


@pytest.mark.parametrize("delta", [50.0, 10.0, 5.0])
def test_latest_departures_keep_the_master_optima(delta):
    # waiting is free, so a move left at t1 is worth no more than the kept
    # move to the same head node left at a later t2: the LP and MIP optima
    # equal those of the network with every departure
    assert any(inst.large_pickups for inst in OPTIMA_DRAWS)
    added = 0
    for inst in OPTIMA_DRAWS:
        frags = enumerate_fragments(inst)
        grid = TimeGrid.fixed(inst, delta)
        links = [(d, j, d, j, -1) for d in inst.deliveries
                 for j in [p for p in inst.pickups if p != d - inst.n]
                 + [inst.destination]]
        added += _optima_kept(inst, grid,
                              lambda: expand_fragments(inst, frags, grid),
                              links, build_tsfrag)
    assert added > 0


@pytest.mark.parametrize("delta", [50.0, 10.0, 5.0])
def test_latest_departures_keep_the_tsef_optima(delta):
    # the same for TSEF: a kept copy of an event arc leaves later than the
    # copies it stands for, and its departure stamp only loosens its
    # pickup's ride row
    added = 0
    for inst in OPTIMA_DRAWS:
        events = enumerate_events(inst, timed=True)
        grid = TimeGrid.fixed(inst, delta)
        links = [(arc.tail, arc.head, *arc.loc_arc, aid)
                 for aid, arc in enumerate(events.arcs)]
        added += _optima_kept(inst, grid,
                              lambda: expand_events(inst, events, grid),
                              links, build_tsef)
    assert added > 0
