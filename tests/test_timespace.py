import math

import numpy as np
import pytest

from darpsv.fragments import enumerate_fragments, start_interval
from darpsv.events import enumerate_events
from darpsv.instance import random_instance
from darpsv.timespace import (IDLE, MOVE, TimeGrid, expand_events,
                              expand_fragments)

from conftest import make_instance


def integerized(seed, n=3, **kw):
    inst = random_instance(seed, n=n, **kw)
    T = np.ceil(inst.travel_time)
    np.fill_diagonal(T, 0.0)
    return inst.replace(travel_time=T, travel_cost=T.copy(),
                        earliest=np.floor(inst.earliest),
                        latest=np.ceil(inst.latest),
                        ride=np.ceil(inst.ride))


def test_fixed_grid_values():
    inst = make_instance(1, np.ones((4, 4)), [0, 3, 10, 0], [50, 17, 30, 50],
                         [0, 100], [0, 1, -1, 0])
    grid = TimeGrid.fixed(inst, 5.0)
    assert grid[1] == [3, 8, 13, 17]  # e + k*delta, plus l
    assert grid[2] == [10, 15, 20, 25, 30]
    assert grid[1][0] == inst.earliest[1]


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
    fine = coarse.copy()
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

    a = shortened(expand_fragments(inst, frags, coarse))
    b = shortened(expand_fragments(inst, frags, fine))
    for key, length in a.items():
        if key in b:
            # refinement never shortens an arc further
            assert b[key] >= length - 1e-9
    for copy in expand_fragments(inst, frags, fine).ts_frags:
        actual = copy.end_actual - copy.start_eff
        stored = None
        # never longer than the true duration
        assert (expand_fragments(inst, frags, fine)
                .nodes[copy.head].t - copy.start_eff) <= actual + 1e-9


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
        tail_t, head_t = net.time_of_node(arc.tail), net.time_of_node(arc.head)
        assert head_t == pytest.approx(
            max(tail_t + inst.travel_time[i, j], inst.earliest[j]))
    for arc in idles:
        assert net.loc_of_node(arc.tail) == net.loc_of_node(arc.head)
        assert arc.cost == 0.0
        assert net.time_of_node(arc.head) > net.time_of_node(arc.tail)


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
