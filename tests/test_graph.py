from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from darpsv.events import enumerate_events
from darpsv.fragments import enumerate_fragments
from darpsv.graph import decompose_flow, reachable
from darpsv.instance import EPS, random_instance, tighten_windows
from darpsv.timespace import (DEPOT_IN, IDLE, TimeGrid, expand_events,
                              expand_fragments)

Edge = namedtuple("Edge", "tail head")


def out_lists(edges, num_nodes, order=None):
    out = [[] for _ in range(num_nodes)]
    for e in order if order is not None else range(len(edges)):
        out[edges[e].tail].append(e)
    return out


def test_reachable_follows_step_only():
    step = {0: [1, 2], 1: [3], 2: [], 3: [1], 4: [0]}.__getitem__
    assert reachable(0, step) == {0, 1, 2, 3}
    assert reachable(2, step) == {2}


# nodes: s=0, a=1, b=2, t=3
DIAMOND = [Edge(0, 1), Edge(0, 2), Edge(1, 3), Edge(2, 3)]


@pytest.mark.parametrize("order, first", [([0, 1, 2, 3], [0, 2]),
                                          ([1, 0, 2, 3], [1, 3])])
def test_walks_try_out_lists_in_order(order, first):
    walks, cycles = decompose_flow(DIAMOND, out_lists(DIAMOND, 4, order),
                                   [1, 1, 1, 1], 0, 3)
    assert walks[0] == first and len(walks) == 2 and cycles == []


def test_figure_eight_returns_lead_in_flow():
    # p=0 and q=2 each form a loop with x=1 (source 3 and sink 4 carry no
    # flow); tracing from p->x first closes x->q->x, and p->x must get its
    # unit back for the p loop to close
    edges = [Edge(0, 1), Edge(1, 2), Edge(2, 1), Edge(1, 0)]
    flow = [1, 1, 1, 1]
    walks, cycles = decompose_flow(edges, out_lists(edges, 5), flow, 3, 4)
    assert walks == []
    assert cycles == [[1, 2], [0, 3]]
    assert flow == [1, 1, 1, 1]  # the caller's flow is not consumed


@pytest.mark.parametrize("order, walks, cycles", [
    ([0, 1, 2, 3], [[0, 1]], [[2, 3]]),  # a->t first: the loop stays a cycle
    ([0, 2, 1, 3], [[0, 2, 3, 1]], []),  # a->c first: the walk absorbs it
])
def test_walks_and_cycles_together(order, walks, cycles):
    # s=0 -> a=1 -> t=2, with a loop a -> c=3 -> a
    edges = [Edge(0, 1), Edge(1, 2), Edge(1, 3), Edge(3, 1)]
    assert decompose_flow(edges, out_lists(edges, 4, order), [1, 1, 1, 1],
                          0, 2) == (walks, cycles)


def test_unconserved_flow_is_rejected():
    # one unit enters a=1 and none leaves
    edges = [Edge(0, 1), Edge(1, 2)]
    with pytest.raises(ValueError, match="not conserved at node 1"):
        decompose_flow(edges, out_lists(edges, 3), [1, 0], 0, 2)


@st.composite
def flows(draw):
    """A multigraph flow built from random source->sink walks and cycles
    over interior nodes, some steps sharing an edge, others parallel."""
    k = draw(st.integers(2, 6))  # interior nodes 2 .. k+1; source 0, sink 1
    interior = st.integers(2, k + 1)
    edges, flow, index = [], [], {}

    def add(u, v):
        if (u, v) not in index or draw(st.booleans()):
            index[u, v] = len(edges)
            edges.append(Edge(u, v))
            flow.append(0)
        flow[index[u, v]] += 1

    for _ in range(draw(st.integers(0, 4))):
        nodes = [0] + draw(st.lists(interior, max_size=6)) + [1]
        for u, v in zip(nodes, nodes[1:]):
            add(u, v)
    for _ in range(draw(st.integers(0, 4))):
        nodes = draw(st.lists(interior, min_size=1, max_size=6))
        for u, v in zip(nodes, nodes[1:] + nodes[:1]):
            add(u, v)
    order = draw(st.permutations(range(len(edges))))
    return edges, out_lists(edges, k + 2, order), flow


@settings(max_examples=300, deadline=None)
@given(flows())
def test_walks_and_cycles_use_exactly_the_flow(case):
    edges, out, flow = case
    walks, cycles = decompose_flow(edges, out, flow, 0, 1)
    used = Counter(e for part in walks + cycles for e in part)
    assert [used[e] for e in range(len(edges))] == flow
    assert len(walks) == sum(flow[e] for e in out[0])
    for walk in walks:
        assert edges[walk[0]].tail == 0 and edges[walk[-1]].head == 1
        assert all(edges[a].head == edges[b].tail for a, b in zip(walk, walk[1:]))
    for cycle in cycles:
        nodes = [edges[e].tail for e in cycle]
        assert len(set(nodes)) == len(nodes)  # simple
        assert all(edges[a].head == edges[b].tail
                   for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def on_some_path(net, groups):
    """Nodes reachable from the origin and reaching the destination,
    recomputed here with a plain search."""
    succ = [set() for _ in net.nodes]
    pred = [set() for _ in net.nodes]
    for group in groups:
        for el in group:
            assert 0 <= el.tail < len(net.nodes) and 0 <= el.head < len(net.nodes)
            succ[el.tail].add(el.head)
            pred[el.head].add(el.tail)

    def search(start, nbrs):
        seen, todo = {start}, [start]
        while todo:
            for v in nbrs[todo.pop()] - seen:
                seen.add(v)
                todo.append(v)
        return seen

    return search(net.origin_node, succ) & search(net.dest_node, pred)


def check_index(net):
    assert net.node_index == {node: i for i, node in enumerate(net.nodes)}
    for aid, arc in enumerate(net.arcs):
        assert aid in net.out_arcs[arc.tail] and aid in net.in_arcs[arc.head]
    assert sum(map(len, net.out_arcs)) == sum(map(len, net.in_arcs)) == len(net.arcs)


def landing(inst, grid, i, j, t):
    """Head time and rounding loss of location arc i -> j left at t, by
    the landing rule; None when it lands past j's window or before its
    grid."""
    arrival = max(t + inst.travel_time[i, j], inst.earliest[j])
    if arrival > inst.latest[j] + EPS:
        return None
    if j == inst.destination:
        return inst.latest[j], 0.0
    r = grid.round_down(j, arrival)
    return None if r is None else (r, arrival - r)


def check_arc_rule(inst, grid, net, links):
    """Each arc i -> j left at t lands at round_down(max(t + T_ij, e_j)),
    keeps the rest as disc, and takes inst.arc_cap(i, j) vehicles; returns
    end at the destination within its window, with no loss.  Conversely,
    for each link (tail place, head place, i, j) and each kept head node,
    consider the departures from the tail's grid times that land there:
    exactly the latest of them has an arc, where its tail is kept, and no
    earlier one does."""
    for arc in net.arcs:
        i, j = arc.loc_arc
        assert arc.cap == inst.arc_cap(i, j)
        if arc.kind == IDLE:
            continue
        want = landing(inst, grid, i, j, net.nodes[arc.tail].t)
        assert want is not None
        assert (arc.head == net.dest_node) == (arc.kind == DEPOT_IN)
        assert net.nodes[arc.head].t == pytest.approx(want[0], abs=1e-9)
        assert arc.disc == pytest.approx(want[1], abs=1e-9)

    present = {(arc.tail, arc.head, arc.loc_arc) for arc in net.arcs}
    for tail, head, i, j in links:
        tails_of = {}  # kept head node -> tail node (or None) per departure
        for t in [inst.earliest[i]] if i == inst.origin else grid[i]:
            want = landing(inst, grid, i, j, t)
            v = None if want is None else \
                net.node_index.get((head, round(float(want[0]), 9)))
            if v is not None:
                tails_of.setdefault(v, []).append(
                    net.node_index.get((tail, round(float(t), 9))))
        for v, us in tails_of.items():
            linked = [u for u in us if (u, v, (i, j)) in present]
            assert linked == [u for u in us[-1:] if u is not None]


DRAWS = [tighten_windows(random_instance(seed, n=3 + seed % 3, vehicles=3,
                                         capacity=2 + seed % 2,
                                         large_share=0.3 * (seed % 2)))
         for seed in range(8)]


@pytest.mark.parametrize("delta", [5.0, 10.0, 50.0])
@pytest.mark.parametrize("k", range(len(DRAWS)))
def test_pruned_networks_keep_only_path_nodes(k, delta):
    inst = DRAWS[k]
    grid = TimeGrid.fixed(inst, delta)

    fnet = expand_fragments(inst, enumerate_fragments(inst), grid)
    kept = on_some_path(fnet, (fnet.ts_frags, fnet.arcs))
    terminals = {fnet.origin_node, fnet.dest_node}
    assert kept | terminals == set(range(len(fnet.nodes)))
    check_index(fnet)
    assert fnet.by_frag == {fid: [c for c, copy in enumerate(fnet.ts_frags)
                                  if copy.frag_id == fid]
                            for fid in {copy.frag_id for copy in fnet.ts_frags}}
    assert sorted(a for aids in fnet.by_loc_arc.values() for a in aids) == \
        [a for a, arc in enumerate(fnet.arcs) if arc.kind != IDLE]
    nf = len(fnet.ts_frags)
    assert fnet.out_elems == [cs + [nf + a for a in arcs] for cs, arcs
                              in zip(fnet.out_frags, fnet.out_arcs)]
    origin, dest = inst.origin, inst.destination
    check_arc_rule(inst, grid, fnet,
                   [(d, p, d, p) for d in inst.deliveries for p in inst.pickups
                    if p != d - inst.n]
                   + [(origin, p, origin, p) for p in inst.pickups]
                   + [(d, dest, d, dest) for d in inst.deliveries])

    events = enumerate_events(inst)
    enet = expand_events(inst, events, grid)
    kept = on_some_path(enet, (enet.arcs,))
    terminals = {enet.origin_node, enet.dest_node}
    assert kept | terminals == set(range(len(enet.nodes)))
    check_index(enet)
    assert sorted(a for aids in enet.by_event_arc.values() for a in aids) == \
        [a for a, arc in enumerate(enet.arcs) if arc.event_arc >= 0]
    check_arc_rule(inst, grid, enet, [(arc.tail, arc.head, *arc.loc_arc)
                                      for arc in events.arcs])
