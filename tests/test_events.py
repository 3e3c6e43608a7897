from collections import deque

import numpy as np
import pytest

from darpsv.events import (Event, EventArc, EventNetwork, _location_closure,
                           _successors, brute_force_events, cap, dump_events,
                           enumerate_events)
from darpsv.instance import EPS, random_instance

from conftest import make_instance


def wide_instance(n, demand, capacity, vehicles=2):
    m = 2 * n + 2
    T = np.full((m, m), 1.0)
    np.fill_diagonal(T, 0.0)
    ride = [0.0] + [1000.0] * n
    return make_instance(n, T, [0.0] * m, [10_000.0] * m, ride, demand,
                         capacity=capacity, vehicles=vehicles)


def test_route_maps_to_event_sequence():
    # route (p2, p3, p1, d3, d1, d2) visits the event states
    # p2, (p3,{2}), (p1,{2,3}), (d3,{1,2}), (d1,{2}), d2
    inst = wide_instance(3, [0, 1, 1, 1, -1, -1, -1, 0], capacity=3)
    net = enumerate_events(inst)
    events = {(ev.loc, ev.onboard) for ev in net.events}
    expected = [(2, ()), (3, (2,)), (1, (2, 3)), (6, (1, 2)), (4, (2,)), (5, ())]
    for state in expected:
        assert state in events
    index = {(ev.loc, ev.onboard): k for k, ev in enumerate(net.events)}
    arcs = {(a.tail, a.head) for a in net.arcs}
    chain = [index[s] for s in expected]
    for u, v in zip(chain, chain[1:]):
        assert (u, v) in arcs


def test_minimal_single_customer_network():
    inst = wide_instance(1, [0, 1, -1, 0], capacity=1, vehicles=1)
    net = enumerate_events(inst)
    labels = [(ev.loc, ev.onboard) for ev in net.events]
    assert labels == [(0, ()), (1, ()), (2, ()), (3, ())]
    assert [(a.tail, a.head) for a in net.arcs] == [(0, 1), (1, 2), (2, 3)]


def test_unit_capacity_structure():
    # Q=1, unit demands: exactly 2n+2 events; arcs are the pair chains plus
    # inter-pair links
    n = 3
    inst = wide_instance(n, [0, 1, 1, 1, -1, -1, -1, 0], capacity=1)
    net = enumerate_events(inst)
    assert net.num_events == 2 * n + 2
    for ev in net.events:
        assert ev.onboard == ()
    arcs = {(net.events[a.tail].loc, net.events[a.head].loc) for a in net.arcs}
    for i in inst.pickups:
        assert (i, i + n) in arcs
        assert all((i, j) not in arcs for j in inst.pickups if j != i)


@pytest.mark.parametrize("seed", range(8))
def test_brute_enumeration_equality_wide_windows(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    demand = [0]
    for _ in range(n):
        demand.append(int(rng.integers(1, 3)))
    demand += [-d for d in demand[1:]] + [0]
    inst = wide_instance(n, demand, capacity=2)
    net = enumerate_events(inst)
    assert {(e.loc, e.onboard) for e in net.events} == \
        {(e.loc, e.onboard) for e in brute_force_events(inst)}


def test_capacity_predicate_on_all_arcs():
    inst = random_instance(4, n=4, capacity=3, large_share=0.3)
    net = enumerate_events(inst)
    for arc in net.arcs:
        for ev in (net.events[arc.tail], net.events[arc.head]):
            if ev.loc in (inst.origin, inst.destination):
                continue
            customer = ev.loc if inst.is_pickup(ev.loc) else ev.loc - inst.n
            if inst.is_large(customer):
                assert ev.onboard == ()
                continue
            onboard = sum(int(inst.demand[c]) for c in ev.onboard)
            if inst.is_pickup(ev.loc):
                assert onboard + inst.demand[ev.loc] <= inst.capacity
            else:
                assert onboard <= inst.capacity


def test_large_customer_pruning():
    inst = wide_instance(2, [0, 1, 4, -1, -4, 0], capacity=2)
    net = enumerate_events(inst)
    assert inst.large_pickups == (2,)
    large_events = [k for k, ev in enumerate(net.events) if ev.loc == 2]
    assert len(large_events) == 1
    (lid,) = large_events
    outs = [net.arcs[a] for a in net.out_arcs[lid]]
    assert [net.events[a.head].loc for a in outs] == [2 + inst.n]
    for a in net.in_arcs[lid]:
        tail_loc = net.events[net.arcs[a].tail].loc
        assert tail_loc == inst.origin or inst.is_delivery(tail_loc)


def test_caps():
    inst = wide_instance(2, [0, 1, 4, -1, -4, 0], capacity=2)
    small_p, large_p = Event(1, ()), Event(2, ())
    large_d = Event(2 + inst.n, ())
    depot = Event(0, ())
    assert cap(inst, small_p, Event(1 + inst.n, ())) == 1
    assert cap(inst, large_p, large_d) == 2
    assert cap(inst, depot, large_p) == 2
    assert cap(inst, large_d, Event(inst.destination, ())) == 2
    assert cap(inst, large_d, small_p) == 1


def test_window_reachability_prunes():
    # second customer can only run after the first is done; interleavings
    # disappear
    T = np.full((6, 6), 1.0)
    np.fill_diagonal(T, 0.0)
    inst = make_instance(2, T, [0, 0, 500, 0, 500, 0],
                         [5000, 10, 510, 20, 510, 5000],
                         [0, 100, 100], [0, 1, 1, -1, -1, 0], capacity=2)
    net = enumerate_events(inst)
    states = {(e.loc, e.onboard) for e in net.events}
    assert (2, (1,)) not in states  # cannot carry 1 while picking 2
    assert (1, ()) in states and (2, ()) in states


def test_dump_deterministic():
    inst = random_instance(2, n=3)
    assert dump_events(enumerate_events(inst)) == \
        dump_events(enumerate_events(inst))


def unpruned_events(inst):
    """Reference builder without the closure prune: forward search with the
    pairwise window test, then the co-reachability pass."""
    e, l, T = inst.earliest, inst.latest, inst.travel_time
    origin, dest = Event(inst.origin, ()), Event(inst.destination, ())

    def tw_ok(i, j):
        return e[i] + T[i, j] <= l[j] + EPS

    adjacency = {origin: [Event(i, ()) for i in inst.pickups
                          if tw_ok(inst.origin, i)], dest: []}
    queue = deque(adjacency[origin])
    while queue:
        ev = queue.popleft()
        if ev in adjacency:
            continue
        succ = [nxt for nxt in _successors(inst, ev) if tw_ok(ev.loc, nxt.loc)]
        if inst.is_delivery(ev.loc) and not ev.onboard \
                and tw_ok(ev.loc, inst.destination):
            succ.append(dest)
        adjacency[ev] = succ
        queue.extend(nxt for nxt in succ if nxt not in adjacency)

    reverse = {}
    for ev, succ in adjacency.items():
        for nxt in succ:
            reverse.setdefault(nxt, []).append(ev)
    keep, stack = {dest}, [dest]
    while stack:
        for prev in reverse.get(stack.pop(), ()):
            if prev not in keep:
                keep.add(prev)
                stack.append(prev)
    keep.add(origin)

    events = sorted(keep, key=lambda ev: (ev.loc, ev.onboard))
    index = {ev: k for k, ev in enumerate(events)}
    arcs = sorted((EventArc(index[ev], index[nxt], (ev.loc, nxt.loc),
                            float(inst.travel_cost[ev.loc, nxt.loc]),
                            cap(inst, ev, nxt))
                   for ev in events for nxt in adjacency[ev] if nxt in keep),
                  key=lambda a: (a.tail, a.head))
    return EventNetwork(inst, events, arcs, index[origin], index[dest])


def origin_detour_instance():
    """Customer 2 is picked up long after customer 1 must be delivered, so
    (2,{1}) is dead; only a detour through the origin, whose window stays
    open, would lead from 2 back to 1's delivery in time."""
    T = np.full((6, 6), 1.0)
    np.fill_diagonal(T, 0.0)
    return make_instance(2, T, [0, 0, 100, 0, 100, 0],
                         [5000, 10, 110, 20, 200, 5000],
                         [0, 100, 100], [0, 1, 1, -1, -1, 0], capacity=2)


def non_metric_instance(seed, n=4):
    """Random travel times without the triangle inequality, so the closure
    reaches pairs the direct arc test rejects."""
    rng = np.random.default_rng(seed)
    m = 2 * n + 2
    T = rng.uniform(1.0, 60.0, size=(m, m))
    np.fill_diagonal(T, 0.0)
    earliest = np.zeros(m)
    latest = np.full(m, 1000.0)
    for i in range(1, n + 1):
        earliest[i] = rng.uniform(0.0, 60.0)
        latest[i] = earliest[i] + rng.uniform(5.0, 40.0)
        earliest[i + n] = earliest[i] + T[i, i + n]
        latest[i + n] = latest[i] + rng.uniform(20.0, 80.0)
    demand = [0] + [1] * n + [-1] * n + [0]
    return make_instance(n, T, earliest, latest, [0.0] + [1000.0] * n, demand,
                         capacity=2)


def test_closure_never_passes_through_origin():
    inst = origin_detour_instance()
    reach = _location_closure(inst)
    assert not reach[2][3]  # 2 -> 0 -> 3 fits the windows but is no path
    assert reach[1][3] and reach[2][4] and reach[3][5]


@pytest.mark.parametrize("inst", [
    pytest.param(random_instance(seed, n=3 + seed % 4, capacity=2 + seed // 4 % 2,
                                 large_share=0.3 * (seed // 8 % 2)),
                 id=f"random{seed}")
    for seed in range(24)
] + [
    pytest.param(non_metric_instance(seed), id=f"non-metric{seed}")
    for seed in range(8)
] + [
    pytest.param(origin_detour_instance(), id="origin-detour"),
])
def test_closure_prune_keeps_network(inst):
    assert dump_events(enumerate_events(inst)) == \
        dump_events(unpruned_events(inst))
